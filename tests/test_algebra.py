"""Core arithmetic: constructors, normal form, orders, gradings, subalgebras."""

import itertools
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from lsea import (
    NEG_INF,
    AmbientMismatch,
    DomainError,
    Element,
    commutator,
    element_from_json,
    element_to_json,
    gen_l,
    gen_r,
    generator,
    homogeneous_components,
    is_homogeneous,
    lm_lc,
    membership,
    mul,
    normal_form_oracle,
    pderiv_l,
    project_to_L,
    shift_lr,
    wdeg,
)
from lsea.algebra import (
    MAX_EXPONENT,
    TERM_BUDGET,
    TermBudgetExceeded,
    _insert_letter,
    _r_gradient,
    _rword_past_monomial,
    _wdegree,
    as_fraction,
    pdeg_key,
    rword_key,
)
from lsea.verify import rand_element, rand_lpoly, rand_nonzero, rand_weights

from conftest import rand_word


def elem(n, *terms):
    out = Element.zero(n)
    for lexp, rword, c in terms:
        out = out + Element.from_word(n, lexp, rword, c)
    return out


class TestConstructors:
    def test_generators(self):
        l1 = generator(2, "L", 1)
        assert l1 == gen_l(2, 1)
        assert generator(2, "R", 2) == gen_r(2, 2)

    def test_generators_cached(self):
        assert gen_l(3, 2) is generator(3, "l", 2)
        assert gen_r(3, 2) is gen_r(3, 2)
        assert gen_l(3, 2) is not gen_l(2, 2)

    def test_index_bound(self):
        with pytest.raises(DomainError):
            generator(2, "R", 3)
        with pytest.raises(DomainError):
            gen_l(2, 0)
        # with l_1 already cached, an equal bool or float must not read its entry
        assert gen_l(2, 1) == Element(2, [(((1, 0), ()), 1)])
        for kind, index in (("l", 1.5), ("r", 1.5), ("l", True), ("r", 1.0)):
            message = f"generator index must be an integer, got {index!r}"
            with pytest.raises(DomainError) as exc:
                generator(2, kind, index)
            assert str(exc.value) == message

    @pytest.mark.parametrize("n, lexp", [(2.0, (1, 0)), (True, (1,)), ("2", (1, 0))])
    def test_ambient_of_plain_int_only(self, n, lexp):
        with pytest.raises(DomainError) as exc:
            Element(n, [((lexp, ()), 1)])
        assert str(exc.value) == f"ambient n must be an integer, got {n!r}"

    @pytest.mark.parametrize("n", [True, 1.0, 1.5, 2.0, "2"])
    def test_cached_constructors_of_plain_int_n_only(self, n):
        # with a cold cache and with U_1's and U_2's entries warm, an equal
        # bool or float must neither build an element nor read an entry
        builds = (Element.zero, Element.one, lambda n: generator(n, "l", 1),
                  lambda n: generator(n, "r", 1))
        for warm in (False, True):
            for cached in (Element.zero, Element.one, generator):
                cached.cache_clear()
            for build in builds:
                for m in (1, 2) if warm else ():
                    build(m)
            for build in builds:
                with pytest.raises(DomainError) as exc:
                    build(n)
                assert str(exc.value) == f"ambient n must be an integer, got {n!r}"
        assert Element.zero(1) == Element(1) and Element.one(2) == elem(2, ((0, 0), (), 1))

    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_words_of_plain_ints_only(self, bad):
        # the constructor, from_word and the JSON loader give one text
        term = {"l": [0, bad], "r": [], "c": "1"}
        for build in (
            lambda: Element(2, [(((bad, 0), ()), 1)]),
            lambda: Element(2, {((0, 0), (1, bad)): 1}),
            lambda: Element.from_word(2, (0, bad), ()),
            lambda: Element.from_word(2, (0, 0), (bad,), 0),
            lambda: element_from_json({"n": 2, "terms": [term]}),
        ):
            with pytest.raises(DomainError) as exc:
                build()
            assert str(exc.value) == f"an exponent or r-letter must be an integer, got {bad!r}"

    def test_from_word_zero_coefficient(self):
        for c in (0, "0", "-0/5", Fraction(0)):
            assert Element.from_word(2, (1, 0), (2, 1), c) == Element.zero(2)

    def test_linear_laws(self):
        l1, l2, r1 = gen_l(2, 1), gen_l(2, 2), gen_r(2, 1)
        assert (l1 + (-1) * l1).is_zero
        assert Fraction(1, 2) * (2 * r1) == r1
        assert len(l1 + l2) == 2

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            gen_l(2, 1) + gen_l(3, 1)
        with pytest.raises(AmbientMismatch):
            mul(gen_l(2, 1), gen_l(3, 1))


class TestMul:
    def test_straightening_relation(self):
        # r1 * l2 = l2*r1 + r1*r2
        expect = elem(2, ((0, 1), (1,), 1), ((0, 0), (1, 2), 1))
        assert mul(gen_r(2, 1), gen_l(2, 2)) == expect

    def test_commuting_relation(self):
        assert mul(gen_l(2, 2), gen_l(2, 1)) == elem(2, ((1, 1), (), 1))

    def test_r_past_square(self):
        # r1 * l1^2 = l1^2 r1 + 2 l1 r1 r1 + 2 r1 r1 r1, by hand and by oracle
        got = mul(gen_r(1, 1), gen_l(1, 1) ** 2)
        expect = elem(
            1, ((2,), (1,), 1), ((1,), (1, 1), 2), ((0,), (1, 1, 1), 2)
        )
        assert got == expect
        assert normal_form_oracle(1, [("r", 1), ("l", 1), ("l", 1)]) == expect

    def test_unit(self):
        one = Element.one(2)
        g = elem(2, ((1, 0), (2,), Fraction(3, 2)))
        assert mul(one, g) == g == mul(g, one)

    def test_oracle_trivial(self):
        assert normal_form_oracle(2, [("l", 1)]) == gen_l(2, 1)

    def test_oracle_single_rewrite(self):
        got = normal_form_oracle(2, [("r", 1), ("l", 2)])
        assert got == elem(2, ((0, 1), (1,), 1), ((0, 0), (1, 2), 1))

    def test_oracle_equivalence_random(self):
        rng = random.Random(20240)
        for _ in range(120):
            n = rng.randint(1, 3)
            word = rand_word(rng, n, rng.randint(0, 6))
            via_mul = Element.one(n)
            for kind, i in word:
                via_mul = mul(via_mul, generator(n, kind, i))
            assert via_mul == normal_form_oracle(n, word)

    def test_associativity_random(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 3)
            a, b, c = (rand_element(rng, n, 3) for _ in range(3))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_r_past_monomial_closed_form_matches_oracle(self):
        # every r_i l^s with n <= 3 and exponents <= 3 (2 when n = 3), and
        # words of two to four letters past l^s with exponents <= 5, 2 or 1;
        # the layers hold distinct words with positive constants, so no two
        # terms of an entry share a word
        rng = random.Random(1802)
        for n, top, low in ((1, 3, 5), (2, 3, 2), (3, 2, 1)):
            cases = [
                ((i,), lexp)
                for lexp in itertools.product(range(top + 1), repeat=n)
                for i in range(1, n + 1)
            ]
            for length in (2, 3, 4):
                for _ in range(3):
                    word = tuple(rng.randint(1, n) for _ in range(length))
                    cases.append((word, tuple(rng.randint(0, low) for _ in range(n))))
            for word, lexp in cases:
                letters = [("r", i) for i in word] + [
                    ("l", j + 1) for j, e in enumerate(lexp) for _ in range(e)
                ]
                out = _rword_past_monomial(word, lexp)
                assert len({(s, v) for s, v, _ in out}) == len(out)
                assert all(c > 0 for _, _, c in out)
                got = Element(n, [((s, v), c) for s, v, c in out])
                assert got == normal_form_oracle(n, letters), (word, lexp)

    def test_long_r_words_cold_or_warm_match_oracle(self):
        # long words straightened on cold caches, and again longest first on
        # warm ones
        rng = random.Random(11)
        cases = []
        for length in (2, 3, 7, 8, 9, 16, 17, 23):
            n = rng.randint(1, 2)
            word = tuple(rng.randint(1, n) for _ in range(length))
            lexp = tuple(rng.randint(0, 2) for _ in range(n))
            letters = [("r", j) for j in word] + [
                ("l", k + 1) for k, e in enumerate(lexp) for _ in range(e)
            ]
            cases.append((n, word, lexp, normal_form_oracle(n, letters)))
        _rword_past_monomial.cache_clear()
        for order in (cases, cases[::-1]):
            for n, word, lexp, expected in order:
                rword = Element.from_word(n, (0,) * n, word)
                assert mul(rword, Element.from_word(n, lexp, ())) == expected, word

    def test_long_words_share_their_straightening(self):
        # each of 64 right multiplications by l1 + r1 straightens every word
        # of the partial power past l1 as w l1 = l1 w + D_1(w), one cached
        # entry per word with one D_1 layer; folding every letter of every
        # word anew took over 3 s on a 2-vCPU machine
        _rword_past_monomial.cache_clear()
        x = gen_l(1, 1) + gen_r(1, 1)
        start = time.perf_counter()
        g = Element.one(1)
        for _ in range(64):
            g = mul(g, x)
        elapsed = time.perf_counter() - start
        assert len(g) == 65
        assert g.coefficient((64,), ()) == 1
        assert elapsed < 2.0

    def test_insert_letter_matches_naive_insertion(self):
        # r_j put into each place from `start` on, one word per place, summed;
        # the words are drawn as runs of one letter, so places merge
        rng = random.Random(1801)
        merged = 0
        for n in (1, 2, 3):
            for _ in range(80):
                word = []
                for _ in range(rng.randint(0, 4)):
                    word += [rng.randint(1, n)] * rng.randint(1, 3)
                word, j = tuple(word), rng.randint(1, n)
                for start in (0, 1):
                    places = range(start, len(word) + 1)
                    naive = Counter(word[:p] + (j,) + word[p:] for p in places)
                    got = _insert_letter(word, j, start)
                    assert dict(got) == naive and len(got) == len(naive), (word, j, start)
                    merged += any(m > 1 for _, m in got)
        assert merged > 50
        assert _insert_letter((), 2, 0) == [((2,), 1)]
        assert _insert_letter((), 2, 1) == []

    def test_long_run_past_one_l_fills_one_entry(self):
        # the 3000 places of D_1 in r1^3000 merge into one word, and the
        # product fills one straightening-cache entry, not one per suffix
        _rword_past_monomial.cache_clear()
        a = gen_r(1, 1) ** 3000
        before = _rword_past_monomial.cache_info().currsize
        expected = Element.from_word(1, (1,), (1,) * 3000)
        expected = expected + Element.from_word(1, (0,), (1,) * 3001, 3000)
        assert mul(a, gen_l(1, 1)) == expected
        assert _rword_past_monomial.cache_info().currsize == before + 1

    @staticmethod
    def _oracle_product(a, b):
        # every term pair spelled as letters and put in normal form alone
        out = Element.zero(a.n)
        for wa, ca in a.terms():
            for wb, cb in b.terms():
                letters = [("l", i + 1) for i, e in enumerate(wa.lexp) for _ in range(e)]
                letters += [("r", j) for j in wa.rword]
                letters += [("l", i + 1) for i, e in enumerate(wb.lexp) for _ in range(e)]
                letters += [("r", j) for j in wb.rword]
                out = out + (ca * cb) * normal_form_oracle(a.n, letters)
        return out

    def test_pure_l_left_terms_match_oracle(self):
        # left factors with terms without r-letters, alone or among others,
        # times general right factors
        rng = random.Random(3201)
        pure = 0
        for n in (1, 2, 3):
            for _ in range(25):
                a = rand_lpoly(rng, n, 3, terms=3)
                if rng.random() < 0.5:
                    a = a + rand_element(rng, n, 2, terms=3)
                b = rand_element(rng, n, 3, terms=3)
                assert mul(a, b) == self._oracle_product(a, b), (a, b)
                pure += any(not w.rword for w, _ in a.terms())
        assert pure > 60

    def test_pure_l_left_terms_make_no_lookup(self):
        # every left term is an L-monomial (the unit among them) and every
        # right term but one carries l-letters
        a = Element.one(3) + 2 * gen_l(3, 1) ** 2 * gen_l(3, 3) - gen_l(3, 2)
        b = elem(3, ((1, 0, 2), (2, 1), 3), ((0, 4, 0), (3,), -1), ((0, 0, 0), (1, 1), 5))
        info = _rword_past_monomial.cache_info()
        product = mul(a, b)
        after = _rword_past_monomial.cache_info()
        assert after.hits + after.misses == info.hits + info.misses
        assert product == self._oracle_product(a, b)

    def test_pure_l_left_terms_charge_the_accumulator(self):
        # l1^a (l2^j r1) are 100 distinct words; under a bound of 50 the
        # accumulator trips after the sixth left term, at 60 terms
        a = sum((gen_l(2, 1) ** e for e in range(10)), Element.zero(2))
        b = sum((gen_l(2, 2) ** e * gen_r(2, 1) for e in range(10)), Element.zero(2))
        assert len(mul(a, b)) == 100
        token = TERM_BUDGET.set(50)
        try:
            with pytest.raises(TermBudgetExceeded, match="has 60 terms, over the --max-terms bound 50"):
                mul(a, b)
        finally:
            TERM_BUDGET.reset(token)

    def test_kernel_charges_each_layer(self):
        # r1 l1^8 l2^8 has 48619 terms; under a budget of 1000 the running
        # count trips while the layers are built, one layer past the bound
        _rword_past_monomial.cache_clear()
        token = TERM_BUDGET.set(1000)
        try:
            with pytest.raises(TermBudgetExceeded, match="over the --max-terms bound 1000") as exc:
                _rword_past_monomial((1,), (8, 8))
        finally:
            TERM_BUDGET.reset(token)
        count = int(str(exc.value).split()[3])
        assert 1000 < count < 1500
        assert len(_rword_past_monomial((1,), (8, 8))) == 48619


def _square_and_multiply(x, k):
    # the binary powering Element.__pow__ used before it became a right fold
    out, base = Element.one(x.n), x
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


class TestPowers:
    def test_power_matches_oracle(self):
        # (c_0 + sum c_g g)^k expanded over every sequence of k summands,
        # each product of generators put in normal form by the oracle
        rng = random.Random(1401)
        for n, top in ((1, 4), (2, 3), (3, 3)):
            for _ in range(4):
                pool = [(kind, i) for kind in "lr" for i in range(1, n + 1)]
                summands = [(None, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))]
                for g in rng.sample(pool, min(3, 2 * n)):
                    c = Fraction(rng.randint(1, 3), rng.choice([-1, 3]))
                    summands.append((g, c))
                x = Element.zero(n)
                for g, c in summands:
                    x = x + c * (Element.one(n) if g is None else generator(n, *g))
                for k in range(top + 1):
                    expected = Element.zero(n)
                    for seq in itertools.product(summands, repeat=k):
                        coeff = Fraction(1)
                        for _, c in seq:
                            coeff *= c
                        letters = [g for g, _ in seq if g is not None]
                        expected = expected + coeff * normal_form_oracle(n, letters)
                    assert x**k == expected, (x, k)

    def test_power_matches_repeated_squaring(self):
        rng = random.Random(1402)
        for _ in range(30):
            n = rng.randint(1, 3)
            x = rand_element(rng, n, 2, terms=3)
            for k in range(5):
                assert x**k == _square_and_multiply(x, k), (x, k)
        n2 = gen_l(2, 1) + 2 * gen_l(2, 2) + 3 * gen_r(2, 1) + 4 * gen_r(2, 2)
        assert n2**9 == _square_and_multiply(n2, 9)
        u3 = sum((generator(3, c, i) for c in "lr" for i in (1, 2, 3)), Element.zero(3))
        assert u3**5 == _square_and_multiply(u3, 5)

    def test_power_of_two_terms_is_fast(self):
        # in closed form, T^j(1) = j! r1^j is one word per level; squaring
        # straightened whole words past l1^64 and took 9.8 s on a 2-vCPU machine
        _rword_past_monomial.cache_clear()
        start = time.perf_counter()
        g = (gen_l(1, 1) + gen_r(1, 1)) ** 128
        elapsed = time.perf_counter() - start
        assert len(g) == 129
        assert g.coefficient((128,), ()) == 1
        assert g.coefficient((0,), (1,) * 128) == math.factorial(128)
        assert elapsed < 2.0

    def test_linear_power_matches_the_ladder(self):
        # a base of degree <= 1 is powered in closed form without a budget;
        # repeated `mul` from one is the reference, drawn bases plus the
        # corner cases: constants, zero, pure L, pure R, single generators
        # and l1 - r1, whose T^2(1) is zero
        rng = random.Random(2801)
        for n in (1, 2, 3, 4):
            one = Element.one(n)
            ls = [gen_l(n, i) for i in range(1, n + 1)]
            rs = [gen_r(n, i) for i in range(1, n + 1)]
            bases = [Element.zero(n), 3 * one, Fraction(-2, 3) * one, ls[-1], rs[0],
                     ls[0] - rs[0], rs[-1] - ls[-1], sum(ls, Element.zero(n)),
                     sum(rs, Element.zero(n)) * Fraction(1, 2), one + ls[0] - rs[-1]]
            for _ in range(6):
                x = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * one
                for g in rng.sample(ls + rs, min(3, 2 * n)):
                    x = x + Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)) * g
                bases.append(x)
            for x in bases:
                ladder = Element.one(n)
                for k in range(9):
                    assert x**k == ladder, (x, k)
                    ladder = mul(ladder, x)

    def test_linear_power_is_a_product_of_linear_forms(self):
        # T^j(1) = b ((j-1)ℓ + b) ... (1ℓ + b) against T applied one letter at
        # a time, T(w) = sum_i a_i D_i(w) + w b with D_i `_insert_letter` from
        # place 1, through x^k = sum_m C(k, m) A^m T^(k-m)(1); l1 - 2 r1 has
        # ℓ + b != 0 but 2ℓ + b = 0, so its T^j(1) is zero from j = 3 on
        rng = random.Random(3701)
        for n in (1, 2, 3):
            zero, one = (0,) * n, Element.one(n)
            units = [tuple(int(q == i) for q in range(n)) for i in range(n)]
            ls = [gen_l(n, i) for i in range(1, n + 1)]
            rs = [gen_r(n, i) for i in range(1, n + 1)]
            bases = [ls[0] - rs[0], ls[0] - 2 * rs[0], sum(ls, -sum(rs, Element.zero(n)))]
            for _ in range(8):
                x = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * one
                for g in rng.sample(ls + rs, rng.randint(1, 2 * n)):
                    x = x + Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) * g
                bases.append(x)
            for x in bases:
                a = [x.coefficient(lexp, ()) for lexp in units]
                b = [x.coefficient(zero, (i,)) for i in range(1, n + 1)]
                big_a = sum((c * l for c, l in zip(a, ls)), x.coefficient(zero, ()) * one)
                levels = [{(): Fraction(1)}]  # T^j(1), one letter at a time
                for _ in range(7):
                    t = Counter()
                    for w, c in levels[-1].items():
                        for i in range(1, n + 1):
                            for u, m in _insert_letter(w, i, 1):
                                t[u] += c * a[i - 1] * m
                            t[w + (i,)] += c * b[i - 1]
                    levels.append({w: c for w, c in t.items() if c})
                for j, level in enumerate(levels[1:], 1):
                    size = sum(map(bool, b))
                    for i in range(1, j):
                        size *= sum(1 for ai, bi in zip(a, b) if i * ai + bi)
                    assert len(level) == size, (x, j)
                for k in range(8):
                    expected, am = Element.zero(n), one
                    for m in range(k + 1):
                        tk = Element(n, [((zero, w), c) for w, c in levels[k - m].items()])
                        expected = expected + math.comb(k, m) * mul(am, tk)
                        am = mul(am, big_a)
                    assert x**k == expected, (x, k)
        x = gen_l(1, 1) - 2 * gen_r(1, 1)
        assert [len(x**k) for k in range(6)] == [1, 2, 3, 3, 3, 3]
        # a pure-R base (A = 0) builds T^k(1) alone, yet each level it skips
        # is charged its |supp b|^j words: r1 + r2 trips at j = 7, not k = 10
        for x, bound, count in ((gen_r(2, 1) + gen_r(2, 2), 100, 128),
                                (gen_r(3, 1) - 2 * gen_r(3, 2) + gen_r(3, 3) / 2, 30, 81)):
            free = x**10
            token = TERM_BUDGET.set(bound)
            try:
                with pytest.raises(TermBudgetExceeded, match=f"has {count} terms"):
                    x**10
                TERM_BUDGET.set(len(free))
                assert x**10 == free
            finally:
                TERM_BUDGET.reset(token)

    def test_budget_does_not_choose_the_power_path(self, monkeypatch):
        # a base of degree <= 1 is powered in closed form, with no product,
        # with or without a budget; a base of degree 2 takes k right
        # multiplications.  A budgeted closed form trips at the running size
        # of its T-levels and output, here 1536 of x^9's 2036 terms
        from lsea import algebra

        calls = []
        monkeypatch.setattr(algebra, "mul", lambda a, b: calls.append(1) or mul(a, b))
        x = gen_l(2, 1) + 2 * gen_l(2, 2) + 3 * gen_r(2, 1) + 4 * gen_r(2, 2)
        free = x**9
        token = TERM_BUDGET.set(10**9)
        try:
            assert x**9 == free
        finally:
            TERM_BUDGET.reset(token)
        assert calls == [] and len(free) == 2036
        quadratic = mul(gen_l(2, 1), gen_r(2, 2)) + gen_r(2, 1)
        assert quadratic**3 == _square_and_multiply(quadratic, 3)
        assert len(calls) == 3
        token = TERM_BUDGET.set(1500)
        try:
            with pytest.raises(TermBudgetExceeded, match="1536 terms"):
                x**9
        finally:
            TERM_BUDGET.reset(token)

    def test_budgeted_power_refuses_iff_over(self):
        # every charge of the closed form is at most |x^k|, so x^k is
        # refused under a bound exactly when it has more terms than that
        # bound: drawn bases plus constants, zero, pure L (its T-levels are
        # empty), pure R (A = 0), l1 - r1 and a U_3 base whose 372-term fifth
        # power `mul` builds through a 374-term accumulator
        rng = random.Random(2901)
        for n in (1, 2, 3):
            one = Element.one(n)
            ls = [gen_l(n, i) for i in range(1, n + 1)]
            rs = [gen_r(n, i) for i in range(1, n + 1)]
            bases = [Element.zero(n), 3 * one, sum(ls, Element.zero(n)),
                     sum(rs, Element.zero(n)), ls[0] - rs[0], one + ls[-1] - 2 * rs[0]]
            if n == 3:
                bases.append(-ls[0] + ls[1] - ls[2] + 3 * rs[0] - 2 * rs[1] + 3 * rs[2])
            for _ in range(6):
                x = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * one
                for g in rng.sample(ls + rs, rng.randint(1, 2 * n)):
                    x = x + Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)) * g
                bases.append(x)
            for x in bases:
                for k in range(8):
                    power = x**k
                    token = TERM_BUDGET.set(len(power))
                    try:
                        assert x**k == power, (x, k)
                    finally:
                        TERM_BUDGET.reset(token)
                    if not len(power):
                        continue
                    token = TERM_BUDGET.set(len(power) - 1)
                    try:
                        with pytest.raises(TermBudgetExceeded):
                            x**k
                    finally:
                        TERM_BUDGET.reset(token)

    def test_u1_closed_forms(self):
        # (l1 + r1)^k = sum_m k!/m! l1^m r1^(k-m) and
        # (l1 - r1)^k = l1^k - k l1^(k-1) r1, read off term by term
        x, y = gen_l(1, 1) + gen_r(1, 1), gen_l(1, 1) - gen_r(1, 1)
        for k in range(201):
            plus = [(((m,), (1,) * (k - m)), math.factorial(k) // math.factorial(m))
                    for m in range(k + 1)]
            assert x**k == Element(1, plus), k
            minus = [(((k,), ()), 1)] + [(((k - 1,), (1,)), -k)] * (k > 0)
            assert y**k == Element(1, minus), k

    def test_exponent_cap(self):
        assert gen_l(1, 1) ** MAX_EXPONENT == Element.from_word(1, (MAX_EXPONENT,), ())
        for k in (MAX_EXPONENT + 1, 10**20):
            with pytest.raises(DomainError, match=f"exponent {k} exceeds the limit"):
                gen_r(1, 1) ** k
        for k in (-1, Fraction(2), 2.0):
            with pytest.raises(DomainError, match="non-negative integer"):
                gen_r(1, 1) ** k


class TestCommutator:
    def test_l_generators_commute(self):
        assert commutator(gen_l(2, 1), gen_l(2, 2)).is_zero

    def test_l_r_commutator(self):
        # [l_i, r_j] = -r_j*r_i
        assert commutator(gen_l(2, 1), gen_r(2, 2)) == elem(2, ((0, 0), (2, 1), -1))

    def test_self(self):
        g = rand_element(random.Random(5), 2, 3)
        assert commutator(g, g).is_zero


class TestOrders:
    def test_pdeg_same_degree(self):
        assert pdeg_key((1, 1)) < pdeg_key((2, 0))
        assert pdeg_key((2, 0)) > pdeg_key((1, 1))

    def test_pdeg_degree_first(self):
        assert pdeg_key((1, 0)) < pdeg_key((0, 2))

    def test_pdeg_equal(self):
        assert pdeg_key((1, 2)) == pdeg_key((1, 2))

    def test_rword_length_first(self):
        assert rword_key((1,)) < rword_key((2, 2))

    def test_rword_letter_order(self):
        # r1 > r2, so the word starting with r2 is smaller
        assert rword_key((2, 1)) < rword_key((1, 2))
        assert rword_key((1, 2)) == rword_key((1, 2))


class TestLeadingData:
    def test_two_term(self):
        g = elem(2, ((2, 0), (1,), 1), ((1, 0), (2, 2), 1))
        top, lc = lm_lc(g)
        assert top == (2, 0)
        assert lc == gen_r(2, 1)

    def test_pure_r(self):
        g = elem(2, ((0, 0), (1, 2), 1))
        top, lc = lm_lc(g)
        assert top == (0, 0)
        assert lc == g

    def test_zero(self):
        top, lc = lm_lc(Element.zero(2))
        assert top is None and lc.is_zero

    def test_lm_multiplicative_random(self):
        rng = random.Random(99)
        for _ in range(80):
            n = rng.randint(1, 3)
            g, h = rand_nonzero(rng, n, 3), rand_nonzero(rng, n, 3)
            p = mul(g, h)
            assert not p.is_zero
            assert lm_lc(p)[0] == tuple(
                x + y for x, y in zip(lm_lc(g)[0], lm_lc(h)[0])
            )


class TestGrading:
    def test_wdeg_basic(self):
        g = elem(2, ((1, 0), (2,), 1))
        assert wdeg(g, (1, 1)) == 2
        assert wdeg(g, (1, 0)) == 1

    def test_wdeg_zero(self):
        assert wdeg(Element.zero(2), (1, 1)) is NEG_INF
        assert NEG_INF < -10**9 and not NEG_INF > 0

    def test_weight_length_refused(self):
        for g in (gen_l(2, 1), Element.zero(2)):
            for weights in ((1,), (1, 1, 1)):
                for call in (wdeg, homogeneous_components):
                    with pytest.raises(DomainError) as exc:
                        call(g, weights)
                    assert str(exc.value) == "weight vector length must equal the ambient n"
        for weights, got in (((True, 1), "True"), ((1, 0.5), "0.5")):
            for call in (wdeg, homogeneous_components):
                with pytest.raises(DomainError) as exc:
                    call(gen_l(2, 1), weights)
                assert str(exc.value) == f"a weight must be an integer, got {got}"

    def test_components(self):
        g = gen_l(1, 1) + gen_l(1, 1) ** 2
        comps = homogeneous_components(g, (1,))
        assert set(comps) == {1, 2}
        assert comps[1] == gen_l(1, 1)
        assert sum(comps.values(), Element.zero(1)) == g

    def test_homogeneous_single_component(self):
        g = elem(2, ((1, 0), (2,), 1), ((0, 0), (1, 1), -2))
        assert list(homogeneous_components(g, (1, 1))) == [2]

    def test_grading_closure_per_term(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 3)
            w = rand_weights(rng, n)
            ca = homogeneous_components(rand_nonzero(rng, n, 3), w)
            cb = homogeneous_components(rand_nonzero(rng, n, 3), w)
            da, a = rng.choice(sorted(ca.items()))
            db, b = rng.choice(sorted(cb.items()))
            p = mul(a, b)
            assert not p.is_zero
            for word, _ in p.terms():
                assert _wdegree(word, w) == da + db

    def test_degree_reads_agree_with_components(self):
        # wdeg and is_homogeneous read the word degrees directly; both must
        # say what the homogeneous components say, zero and one-term included
        rng = random.Random(47)
        for k in range(120):
            n = rng.randint(1, 3)
            g = Element.zero(n) if k % 10 == 0 else rand_element(rng, n, 4, terms=k % 5 + 1)
            w = rand_weights(rng, n)
            assert wdeg(g, w) == max(homogeneous_components(g, w), default=NEG_INF)
            standard = homogeneous_components(g, (1,) * n)
            assert is_homogeneous(g) is (len(standard) <= 1)
            for d, part in standard.items():
                assert is_homogeneous(part) and wdeg(part, (1,) * n) == d

    def test_wdeg_additive_on_products(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 3)
            g, h = rand_nonzero(rng, n, 3), rand_nonzero(rng, n, 3)
            assert wdeg(mul(g, h), (1,) * n) == wdeg(g, (1,) * n) + wdeg(h, (1,) * n)


class TestPolynomialOps:
    def test_pderiv(self):
        assert pderiv_l(1, gen_l(1, 1) ** 2) == 2 * gen_l(1, 1)
        assert pderiv_l(2, gen_l(2, 1)).is_zero

    def test_pderiv_domain(self):
        with pytest.raises(DomainError):
            pderiv_l(1, gen_r(1, 1))

    def test_shift_basic(self):
        l1, r1 = gen_l(1, 1), gen_r(1, 1)
        assert shift_lr(l1) == l1 - r1
        assert shift_lr(Element.one(1)) == Element.one(1)
        assert shift_lr(l1**2) == l1**2 - 2 * mul(l1, r1)

    def test_shift_matches_direct_expansion(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 3)
            f = rand_lpoly(rng, n, 4)
            direct = Element.zero(n)
            for w, c in f.terms():
                acc = Element.one(n)
                for k, e in enumerate(w.lexp):
                    if e:
                        acc = mul(acc, (gen_l(n, k + 1) - gen_r(n, k + 1)) ** e)
                direct = direct + c * acc
            assert shift_lr(f) == direct

    def test_r_gradient_matches_products(self):
        # sum_j (df/dl_j) r_j read off f's terms equals the sum of products
        rng = random.Random(31)
        for n in (1, 2, 3, 4):
            cases = [Element.zero(n), Element.one(n), Element.one(n) * Fraction(-5, 3)]
            cases += [rand_lpoly(rng, n, 5, terms=rng.randint(1, 6)) for _ in range(25)]
            for f in cases:
                expected = Element.zero(n)
                for j in range(1, n + 1):
                    expected = expected + mul(pderiv_l(j, f), gen_r(n, j))
                assert _r_gradient(f) == expected, f
            assert any(c.denominator > 1 for f in cases[3:] for _, c in f.terms())

    def test_shift_commutation_identity(self):
        # f(l) r_i = r_i f(l - r)
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 3)
            f = rand_lpoly(rng, n, 4)
            i = rng.randint(1, n)
            assert mul(f, gen_r(n, i)) == mul(gen_r(n, i), shift_lr(f))

    def test_shifted_generators_commute(self):
        for n in (2, 3):
            a = gen_l(n, 1) - gen_r(n, 1)
            b = gen_l(n, n) - gen_r(n, n)
            assert mul(a, b) == mul(b, a)

    def test_straightening_general_polynomial(self):
        # r_i f = f r_i + r_i sum_j (df/dl_j) r_j
        rng = random.Random(37)
        for _ in range(60):
            n = rng.randint(1, 3)
            f = rand_lpoly(rng, n, 4)
            i = rng.randint(1, n)
            tail = Element.zero(n)
            for j in range(1, n + 1):
                tail = tail + mul(pderiv_l(j, f), gen_r(n, j))
            assert mul(gen_r(n, i), f) == mul(f, gen_r(n, i)) + mul(gen_r(n, i), tail)


class TestMembership:
    def test_flags(self):
        # (in_L, in_R, in_I)
        assert membership(mul(gen_l(2, 1), gen_l(2, 2))) == (True, False, False)
        assert membership(mul(gen_l(2, 1), gen_r(2, 1)))[2]
        assert membership(Element.one(2)) == (True, True, False)

    def test_project(self):
        g = gen_l(2, 1) + mul(gen_l(2, 1), gen_r(2, 2))
        lpart, ipart = project_to_L(g)
        assert lpart == gen_l(2, 1)
        assert ipart == mul(gen_l(2, 1), gen_r(2, 2))
        assert lpart + ipart == g
        z = project_to_L(Element.zero(2))
        assert z[0].is_zero and z[1].is_zero
        lpart, ipart = project_to_L(gen_r(2, 1))
        assert lpart.is_zero and ipart == gen_r(2, 1)


class TestCanonicity:
    def test_no_zero_coefficients_survive(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 3)
            a, b = rand_element(rng, n, 3), rand_element(rng, n, 3)
            for g in (a + b, a - a, mul(a, b), Fraction(0) * a):
                assert all(c != 0 for _, c in g.terms())

    def test_json_round_trip(self):
        rng = random.Random(43)
        for _ in range(40):
            g = rand_element(rng, rng.randint(1, 3), 4)
            assert element_from_json(element_to_json(g)) == g

    def test_json_canonical_order(self):
        g = gen_r(2, 1) + mul(gen_l(2, 2), gen_r(2, 2)) * 2
        data = element_to_json(g)
        assert data["terms"][0]["l"] == [0, 1]
        assert data["terms"][0]["c"] == "2"

    def test_json_zero_denominator_is_domain_error(self):
        data = {"n": 1, "terms": [{"l": [0], "r": [1], "c": "1/0"}]}
        with pytest.raises(DomainError):
            element_from_json(data)

    @pytest.mark.parametrize(
        "text", ["0.5", "1e3", "1_000", "\u0661/\u0662", " 1", "1 ", "1/", "/2", "+", "1/-2", ""]
    )
    def test_coefficient_string_outside_the_grammar_refused(self, text):
        # Fraction would read decimals, exponents (1e10000000 is ten million
        # digits), underscores, Unicode digits and surrounding spaces
        with pytest.raises(ValueError, match="not a rational p or p/q"):
            as_fraction(text)
        with pytest.raises(ValueError, match="not a rational p or p/q"):
            element_from_json({"n": 1, "terms": [{"l": [0], "r": [1], "c": text}]})

    def test_coefficient_string_grammar(self):
        assert as_fraction("-2/4") == Fraction(-1, 2)
        assert as_fraction("+7") == 7 and as_fraction("0/5") == 0
        assert as_fraction("-" + "9" * 50) == -(10**50 - 1)

    def test_json_float_coefficient_refused(self):
        data = {"n": 1, "terms": [{"l": [0], "r": [1], "c": 0.1}]}
        with pytest.raises(TypeError, match="not an exact rational"):
            element_from_json(data)

    @pytest.mark.parametrize(
        "n, lexp, rword, c",
        [
            (2.0, [0, 1], [1, 2], "1"),
            (True, [1], [1], "1"),
            ("2", [0, 1], [1, 2], "1"),
            (2, [0.0, 1], [1, 2], "1"),
            (2, [False, 1], [1, 2], "1"),
            (2, ["0", 1], [1, 2], "1"),
            (2, [0, 1], [1.0, 2], "1"),
            (2, [0, 1], [True, 2], "1"),
            (2, [0, 1], "12", "1"),
            (2, [0, 1], [1, 2], True),
        ],
    )
    def test_json_non_int_refused(self, n, lexp, rword, c):
        # equal to ints as they are, these would build words that are not
        # canonical; a bool coefficient is refused by as_fraction's rule
        data = {"n": n, "terms": [{"l": lexp, "r": rword, "c": c}]}
        error, match = (TypeError, "not an exact rational") if c is True else (
            DomainError, "must be an")
        with pytest.raises(error, match=match):
            element_from_json(data)


# JSON coefficient spellings, each term's on the word r1 (or r1*r1, ...)
READ_SPELLINGS = {
    "zero": ["0"],
    "minus-zero": ["-0"],
    "plus": ["+3"],
    "unreduced": ["2/4"],
    "negative-unreduced": ["-7/21"],
    "5000-digits": ["7" * 5000],
    "5000-digit-rational": ["-" + "3" * 5000 + "/" + "9" * 4999],
    "mixed-denominators": ["1/6", "-5/4", "7", "2/9", "-0/3", "10/15"],
    "cancelling": ["1/2", "-2/4"],
}

# a refused coefficient -> the one exception (type and message) that the
# JSON loader, as_fraction and the constructor each raise
REFUSED = [
    (True, TypeError("not an exact rational: True")),
    (False, TypeError("not an exact rational: False")),
    (0.5, TypeError("not an exact rational: 0.5")),
    (None, TypeError("not an exact rational: None")),
    ("0.5", ValueError("not a rational p or p/q: '0.5'")),
    ("1e3", ValueError("not a rational p or p/q: '1e3'")),
    (" 3", ValueError("not a rational p or p/q: ' 3'")),
    ("\u0661\u0662", ValueError("not a rational p or p/q: '\u0661\u0662'")),
    ("1/0", DomainError("zero denominator in coefficient '1/0'")),
    ("-3/0", DomainError("zero denominator in coefficient '-3/0'")),
    ("+0/00", DomainError("zero denominator in coefficient '+0/00'")),
]


@pytest.fixture
def any_digits():
    """Lift the int/str digit limit, as the CLI does, for 5000-digit literals."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


class TestCoefficientReader:
    @pytest.mark.parametrize("spellings", READ_SPELLINGS.values(), ids=READ_SPELLINGS)
    def test_reads_like_fraction(self, any_digits, spellings):
        words = [((0, 1), (1,) * k) for k in range(1, len(spellings) + 1)]
        data = {"n": 2, "terms": [{"l": list(l), "r": list(r), "c": c}
                                  for (l, r), c in zip(words, spellings)]}
        by_fraction = Element(2, [(w, Fraction(c)) for w, c in zip(words, spellings)])
        assert element_from_json(data) == by_fraction
        assert Element(2, list(zip(words, spellings))) == by_fraction
        for c in spellings:
            assert as_fraction(c) == Fraction(c)
        # canonical storage: one reduced denominator, no stored zero
        den, pairs = element_from_json(data).int_terms()
        assert math.gcd(den, *(k for _, k in pairs)) == 1 and all(k for _, k in pairs)

    @pytest.mark.parametrize("c, want", REFUSED, ids=[repr(row[0]) for row in REFUSED])
    def test_refusals_keep_type_and_message(self, c, want):
        data = {"n": 1, "terms": [{"l": [0], "r": [1], "c": c}]}
        for build in (
            lambda: element_from_json(data),
            lambda: as_fraction(c),
            lambda: Element(1, [(((0,), (1,)), c)]),
        ):
            with pytest.raises(type(want)) as exc:
                build()
            assert type(exc.value) is type(want) and str(exc.value) == str(want)
