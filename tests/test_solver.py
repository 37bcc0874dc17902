"""Graded slices, operator matrices, exact solving, and the constructive lemmas."""

import hashlib
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from math import comb

import pytest
from conftest import _position, _positions, derivation_residual_terms, violated_residuals

from lsea import (
    AnomalyError,
    Derivation,
    DomainError,
    Element,
    ad,
    ad_preimage,
    apply_derivation,
    check_derivation,
    commutator,
    derivation_coords,
    derivation_space,
    dim,
    element_from_json,
    element_to_json,
    extend_lnd_prop55,
    gen_l,
    gen_r,
    graded_slice,
    in_I,
    lemma27_solutions,
    lm_lc,
    mul,
    rfactor_decompose,
    solve,
    weighted_slice,
)
from lsea import solver
from lsea.algebra import _wdegree
from lsea.cli import main as cli_main
from lsea.linalg import RowReduction
from lsea.maps import relation_words, relations
from lsea.parser import format_element
from lsea.verify import example41_derivation, rand_homogeneous_I, rand_rpoly


def column(g, s):
    """Coordinate column of a homogeneous element in a slice basis; a term
    outside the slice raises DomainError."""
    positions = _positions(s)
    col = [Fraction(0)] * len(s)
    for w, c in g.terms():
        col[_position(w, positions)] = c
    return col


def operator_matrix(op, source, target):
    """Reference: sparse rows of a linear operator, one per target basis word,
    from the Element image of each source basis word (a word's l-exponent
    vector has one entry per variable of its U_n)."""
    rows = [{} for _ in range(len(target))]
    for col, w in enumerate(source):
        for pos, c in enumerate(column(op(Element(len(w.lexp), {w: 1})), target)):
            if c:
                rows[pos][col] = c
    return rows


def matvec(a, x):
    return [sum((aij * xj for aij, xj in zip(row, x)), Fraction(0)) for row in a]


class TestSlices:
    def test_dim_2_2_is_11(self):
        assert dim(2, 2) == 11
        assert len(graded_slice(2, 2)) == 11

    def test_small_dims(self):
        assert dim(1, 0) == 1
        assert dim(1, 1) == 2
        assert graded_slice(1, 1) == (
            ((1,), ()),
            ((0,), (1,)),
        )

    def test_enumeration_matches_closed_form(self):
        for n in (1, 2, 3):
            for m in range(6):
                s = graded_slice(n, m)
                assert len(s) == dim(n, m)
                assert len(s) == sum(
                    comb(a + n - 1, n - 1) * n ** (m - a) for a in range(m + 1)
                )
                assert len(set(s)) == len(s)

    def test_weighted_slice_standard_agrees(self):
        for n in (1, 2):
            for m in range(4):
                assert weighted_slice(n, m, (1,) * n) == graded_slice(n, m)

    def test_slice_bases_pinned(self):
        # SHA-256 of every basis for n <= 3, m <= 6, with and without I,
        # recorded from the stars-and-bars enumerator of the unit-weight slice
        lines = []
        for n in (1, 2, 3):
            for m in range(-1, 7):
                for restrict in (False, True):
                    basis = [tuple(map(tuple, w)) for w in graded_slice(n, m, restrict)]
                    lines.append(repr((n, m, restrict, basis)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "cd08e60c43e7347878ac74aea5ed78ed8b45a0450b5cb67deb93cc8b0652fc74"

    def test_slice_size_is_the_word_count(self):
        for n, weights in ((1, (1,)), (1, (3,)), (2, (1, 1)), (2, (1, 2)), (3, (2, 1, 3))):
            for m in range(9):
                for restrict in (False, True):
                    size = solver._slice_size(m, weights, restrict)
                    assert size == len(weighted_slice(n, m, weights, restrict))
                    if weights == (1,) * n and not restrict:
                        assert size == dim(n, m)

    def test_slice_charged_before_enumeration(self, monkeypatch):
        from lsea.algebra import TERM_BUDGET, TermBudgetExceeded

        def unreachable(*args):
            raise AssertionError("slice enumerated before its charge")

        token = TERM_BUDGET.set(26)
        try:
            assert len(graded_slice(2, 3)) == 26  # an exact fit is not refused
            monkeypatch.setattr(solver, "_lmonomials", unreachable)
            for m, restrict in ((4, False), (4, True), (60, False)):
                words = dim(2, m) - (m + 1 if restrict else 0)
                with pytest.raises(TermBudgetExceeded, match=f"has {words} terms"):
                    graded_slice(2, m, restrict)
            TERM_BUDGET.set(25)
            with pytest.raises(TermBudgetExceeded, match="has 26 terms"):
                graded_slice(2, 3)
        finally:
            TERM_BUDGET.reset(token)

    def test_weighted_slice_needs_positive_weights(self):
        with pytest.raises(DomainError):
            weighted_slice(2, 3, (1, 0))

    def test_weight_length_refused(self):
        for call in (
            lambda: weighted_slice(2, 1, (1,)),
            lambda: derivation_space(2, 1, weights=(1, 1, 1)),
            lambda: derivation_space(1, 0, True, (1, 1)),
        ):
            with pytest.raises(DomainError) as exc:
                call()
            assert str(exc.value) == "weight vector length must equal the ambient n"
        with pytest.raises(DomainError) as exc:
            weighted_slice(2, 2, (1.5, 1))
        assert str(exc.value) == "a weight must be an integer, got 1.5"

    def test_empty_ambient_refused(self):
        for m in (-1, 0, 2):
            with pytest.raises(DomainError, match="ambient n must be >= 1"):
                graded_slice(0, m)
            with pytest.raises(DomainError, match="ambient n must be >= 1"):
                weighted_slice(0, m, ())


class TestOperatorMatrix:
    def test_ad_l1_on_degree_one(self):
        src = graded_slice(1, 1)
        dst = graded_slice(1, 2)
        m = operator_matrix(ad(gen_l(1, 1)), src, dst)
        # basis of src is (l1, r1); ad_l1 kills l1 and sends r1 to -r1*r1
        assert len(m) == len(dst)
        col_l1 = [row.get(0, 0) for row in m]
        assert all(x == 0 for x in col_l1)
        r1r1_pos = dst.index(((0,), (1, 1)))
        col_r1 = [row.get(1, 0) for row in m]
        assert col_r1[r1r1_pos] == -1
        assert sum(1 for x in col_r1 if x) == 1

    def test_identity_matrix(self):
        s = graded_slice(2, 2)
        m = operator_matrix(lambda g: g, s, s)
        assert m == [{i: 1} for i in range(len(s))]

    def test_left_mul_injective(self):
        src = graded_slice(2, 1)
        dst = graded_slice(2, 2)
        m = operator_matrix(lambda g: mul(gen_l(2, 1), g), src, dst)
        red = RowReduction(len(dst), len(src), m)
        assert red.rank == len(src)

    def test_degree_mismatch_rejected(self):
        src = graded_slice(1, 1)
        with pytest.raises(DomainError):
            operator_matrix(lambda g: mul(gen_l(1, 1), g), src, src)


class TestSolve:
    def test_identity_system(self):
        a = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        res = solve(a, [1, 2, 3])
        assert res.solution == [1, 2, 3]
        assert res.kernel == []

    def test_zero_matrix_inconsistent(self):
        a = [[0, 0], [0, 0]]
        res = solve(a, [1, 0])
        assert res.solution is None
        cert = res.certificate
        assert any(cert)
        # certificate pairs to nonzero against b and kills A
        assert sum(c * b for c, b in zip(cert, [1, 0])) != 0

    def test_rational_pivots(self):
        a = [[Fraction(1, 2), 1], [1, Fraction(1, 3)]]
        res = solve(a, [Fraction(5, 2), Fraction(13, 3)])
        assert res.solution is not None
        assert matvec(a, res.solution) == [Fraction(5, 2), Fraction(13, 3)]

    def test_rhs_of_ints_strings_and_fractions(self):
        red = RowReduction(2, 2, [{0: 2}, {1: 1}])
        x, cert = red.solve([1, "1/3"])
        assert cert is None and x == [Fraction(1, 2), Fraction(1, 3)]
        assert all(type(v) is Fraction for v in x)
        assert red.solve([Fraction(4), 2])[0] == [2, 2]
        with pytest.raises(ValueError):
            red.solve([1, "x"])
        with pytest.raises(ValueError):
            red.solve([1])

    def test_kernel_vectors_annihilate(self):
        a = [[1, 2, 3], [2, 4, 6]]
        res = solve(a, [0, 0])
        assert len(res.kernel) == 2
        for v in res.kernel:
            assert matvec(a, v) == [0, 0]


class TestAdPreimage:
    def test_documented_case(self):
        g = Element.from_word(2, (0, 0), (1, 2))
        us = [apply_derivation(ad(gen_l(2, i)), g) for i in (1, 2)]
        assert us[0] == -Element.from_word(2, (0, 0), (1, 1, 2)) - Element.from_word(
            2, (0, 0), (1, 2, 1)
        )
        assert us[1] == -2 * Element.from_word(2, (0, 0), (1, 2, 2))
        assert ad_preimage(us) == g

    def test_zero_input(self):
        assert ad_preimage([Element.zero(2), Element.zero(2)]).is_zero

    def test_compatibility_checked(self):
        u1 = Element.from_word(2, (0, 0), (1, 1))
        u2 = Element.from_word(2, (0, 0), (2, 2))
        with pytest.raises(DomainError):
            ad_preimage([u1, u2])

    def test_random_recovery(self):
        rng = random.Random(109)
        for _ in range(40):
            n = rng.choice([2, 3])
            deg = rng.randint(1, 4)
            g = rand_homogeneous_I(rng, n, deg)
            us = [apply_derivation(ad(gen_l(n, i)), g) for i in range(1, n + 1)]
            rec = ad_preimage(us)
            assert in_I(rec)
            for i in range(1, n + 1):
                assert apply_derivation(ad(gen_l(n, i)), rec) == us[i - 1]

    def test_inverse_is_charged_and_stays_small(self, monkeypatch):
        # each T_i step is charged to the term budget as it is built ...
        from lsea.algebra import TERM_BUDGET, TermBudgetExceeded

        token = TERM_BUDGET.set(2)
        try:
            with pytest.raises(TermBudgetExceeded, match="has 3 terms"):
                solver._shuffle_letter([(((), (1, 2)), 1)], 3, {})
        finally:
            TERM_BUDGET.reset(token)
        # ... and is applied to a partial sum of at most as many terms as g
        sizes = []
        real = solver._shuffle_letter

        def recording(pairs, i, out):
            pairs = list(pairs)
            sizes.append(len(pairs))
            return real(pairs, i, out)

        monkeypatch.setattr(solver, "_shuffle_letter", recording)
        rng = random.Random(117)
        for _ in range(30):
            n = rng.choice([2, 3])
            g = rand_homogeneous_I(rng, n, rng.randint(2, 6))
            sizes.clear()
            assert ad_preimage([commutator(gen_l(n, i), g) for i in range(1, n + 1)]) == g
            assert max(sizes, default=0) <= len(g)


class TestLemma27:
    def test_leading_span(self):
        for i in (1, 2):
            for d in (2, 3):
                for g in lemma27_solutions(2, i, d):
                    _, lc = lm_lc(g)
                    for w, _ in lc.terms():
                        assert len(w.rword) == 2 and w.rword[0] == i

    def test_r1r1_is_a_solution(self):
        sols = lemma27_solutions(2, 1, 2)
        target = Element.from_word(2, (0, 0), (1, 1))
        # -ad_l1(r1 r1) = 2 r1^3 = r1*g + g*r1, so r1*r1 solves the condition
        di = ad(gen_l(2, 1))
        assert -apply_derivation(di, target) == mul(gen_r(2, 1), target) + mul(
            target, gen_r(2, 1)
        )
        stack = [column(s, graded_slice(2, 2, restrict_to_I=True)) for s in sols]
        tcol = column(target, graded_slice(2, 2, restrict_to_I=True))
        m = list(map(list, zip(*stack)))
        assert solve(m, tcol).solution is not None

    def test_member_charged_before_it_is_built(self, monkeypatch):
        # the member count n C(d + n - 3, n - 1) = 2 * 4 is charged before the
        # members are listed, then each member's size before the first
        # product that builds it
        events = []
        real_mul = solver.mul
        monkeypatch.setattr(solver, "_charge", events.append)
        monkeypatch.setattr(solver, "mul", lambda a, b: events.append("mul") or real_mul(a, b))
        members = lemma27_solutions(2, 1, 5)
        assert events.pop(0) == 8 == len(members)
        charges = [k for k, e in enumerate(events) if e != "mul"]
        assert charges[0] == 0 and all(events[k + 1] == "mul" for k in charges)
        assert [events[k] for k in charges] == [len(g) for g in members]
        # t = (2, 1): the words of content e <= t number 1 + 1 + 1 + 1 + 2 + 3
        assert [len(g) for g in members] == [4, 4, 9, 9, 9, 9, 4, 4]

    def test_defining_condition(self):
        for g in lemma27_solutions(2, 2, 3):
            di = ad(gen_l(2, 2))
            r2 = gen_r(2, 2)
            assert -apply_derivation(di, g) == mul(r2, g) + mul(g, r2)


class TestRFactor:
    def test_base_case(self):
        h = rand_rpoly(random.Random(3), 2, 2)
        u, v = rfactor_decompose(1, 1, 2, h)
        assert u.is_zero and v == h

    def test_zero_cofactor(self):
        u, v = rfactor_decompose(3, 1, 2, Element.zero(2))
        assert u.is_zero and v.is_zero

    def test_rejects_equal_indices(self):
        with pytest.raises(DomainError):
            rfactor_decompose(2, 1, 1, Element.one(2))

    def test_identity_exhaustive_small(self):
        rng = random.Random(113)
        adi = {}
        for n in (2, 3):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    for k in (1, 2, 3, 4):
                        h = rand_rpoly(rng, n, 3)
                        u, v = rfactor_decompose(k, i, j, h)
                        ri, rj = gen_r(n, i), gen_r(n, j)
                        lhs = mul(mul(ri**k, rj), h)
                        d = adi.setdefault((n, i), ad(gen_l(n, i)))
                        rhs = apply_derivation(d, mul(ri, u)) + mul(mul(ri, rj), v)
                        assert lhs == rhs


    def test_deep_power_needs_no_recursion(self, subprocess_env):
        # with a recursion limit below k, only a loop gets through
        script = """
import sys
sys.setrecursionlimit(120)
from lsea import Element, rfactor_decompose, weighted_slice
u, v = rfactor_decompose(150, 1, 2, Element.one(2))
print(len(u), len(v), len(weighted_slice(1, 150, (1,))))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=subprocess_env,
            timeout=120,
        )
        assert proc.stdout.split() == ["149", "1", "151"], proc.stderr


class TestDerivationSpace:
    def test_contains_example41(self):
        space = derivation_space(2, 1, into_I=True)
        assert space
        assert derivation_coords(example41_derivation(), space) is not None

    def test_negative_degree_empty(self):
        assert derivation_space(2, -2) == []

    def test_degree_zero_dimension_regression(self):
        # pinned from the first run: the degree-0 space is the n^2-dimensional
        # family acting by one matrix on both generator banks simultaneously
        assert len(derivation_space(2, 0)) == 4
        a = Fraction(1)
        d = Derivation(
            2,
            (gen_l(2, 2), Element.zero(2)),
            (gen_r(2, 2), Element.zero(2)),
        )
        d, violations = check_derivation(d)
        assert not violations
        assert derivation_coords(d, derivation_space(2, 0)) is not None

    def test_degree_minus_one_is_translations(self):
        # hand computation: constant r-images force themselves to zero via the
        # straightening relation, leaving only the two partial derivatives
        space = derivation_space(2, -1)
        assert len(space) == 2
        for d in space:
            assert all(img.is_zero for img in d.r_images)
            assert sum(0 if img.is_zero else 1 for img in d.l_images) == 1

    def test_members_verify(self):
        for m in (-1, 0, 1):
            for member in derivation_space(2, m):
                assert member.verified
                _, violations = check_derivation(member)
                assert not violations

    def test_prop55_membership(self):
        for degg in (1, 2, 3):
            g = gen_l(2, 2) ** degg
            d = extend_lnd_prop55(2, g)
            space = derivation_space(2, degg - 1)
            assert derivation_coords(d, space) is not None

    def test_closed_under_linear_structure(self):
        space = derivation_space(2, 1, into_I=True)
        a, b = space[0], space[1]
        summed = Derivation(
            2,
            tuple(x + y for x, y in zip(a.l_images, b.l_images)),
            tuple(x + y for x, y in zip(a.r_images, b.r_images)),
        )
        _, violations = check_derivation(summed)
        assert not violations

    @pytest.mark.parametrize(
        "n, m, into_I, weights",
        [(2, m, into_I, w) for m in range(4) for into_I in (False, True) for w in (None, (1, 2))]
        + [(1, 0, False, None)],
    )
    def test_coords_match_flattened_solve(self, n, m, into_I, weights):
        # members, seeded rational combinations, and the combinations with one
        # term added in one slot, which may leave the span
        space = derivation_space(n, m, into_I=into_I, weights=weights)
        rng = random.Random(f"{n} {m} {into_I} {weights}")
        probes = list(space)
        for _ in range(8):
            x = [rng.choice([0, Fraction(rng.randint(-4, 4), rng.randint(1, 3))]) for _ in space]
            lexp = tuple(rng.randint(0, 2) for _ in range(n))
            extra = (rng.randrange(2 * n), Element.from_word(n, lexp, (1,)))
            probes += [_combination(n, x, space), _combination(n, x, space, extra)]
        outside = 0
        for d in probes:
            expected = _flattened_coords(d, space)
            assert derivation_coords(d, space) == expected
            outside += expected is None
        assert outside
        for k, member in enumerate(space):
            assert derivation_coords(member, space) == [int(i == k) for i in range(len(space))]

    def test_coords_reject_a_scaled_member(self):
        space = derivation_space(2, 1)
        d = space[0]
        doubled = Derivation(2, tuple(2 * g for g in d.l_images), tuple(2 * g for g in d.r_images))
        with pytest.raises(DomainError, match="reduced at its pivots"):
            derivation_coords(d, [doubled] + space[1:])

    @pytest.mark.parametrize("n, m, into_I", [(3, 1, True), (1, 1, False)])
    def test_coords_reject_a_basis_of_another_ambient(self, monkeypatch, n, m, into_I):
        # example 4.1 lives in U_2; no coefficient is read before the refusal
        d, space = example41_derivation(), derivation_space(n, m, into_I=into_I)

        def unreachable(*args):
            raise AssertionError("coefficient read before the ambient check")

        monkeypatch.setattr(Element, "coefficient", unreachable)
        with pytest.raises(DomainError, match="ambient"):
            derivation_coords(d, space)

    def test_residual_slots(self):
        # derivation_space evaluates a unit image only against the residuals
        # whose slots contain it; every other residual must vanish
        for n in (2, 3):
            x = gen_l(n, 1) * gen_r(n, n) - 2 * gen_r(n, 1) + gen_l(n, n)
            zero = [Element.zero(n)] * n
            for slot in range(2 * n):
                imgs = list(zero) + list(zero)
                imgs[slot] = x
                probe = Derivation(n, tuple(imgs[:n]), tuple(imgs[n:]))
                residuals = violated_residuals(probe)
                for kind, i, j in relations(n):
                    if slot not in derivation_residual_terms(n, kind, i, j):
                        assert (kind, i, j) not in residuals, (n, slot, kind, i, j)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_table_shape(self, n):
        # one product per factor of each relation word, grouped under the
        # slot of its image factor; the other factor is a generator slot
        for kind, i, j in relations(n):
            table = derivation_residual_terms(n, kind, i, j)
            li, lj, ri, rj = i - 1, j - 1, n + i - 1, n + j - 1
            assert set(table) == ({li, lj} if kind == "s1" else {lj, ri, rj})
            expected = []
            for sign, a, b in relation_words(n, kind, i, j):
                expected += [(a, (sign, None, b)), (b, (sign, a, None))]
            got = [(slot, p) for slot, ps in table.items() for p in ps]
            assert sorted(got, key=repr) == sorted(expected, key=repr)
            for products in table.values():
                for _, left, right in products:
                    assert (left is None) != (right is None)
                    other = right if left is None else left
                    assert isinstance(other, int) and 0 <= other < 2 * n


def _combination(n, x, space, extra=None):
    """The unverified derivation sum(x_k space[k]), plus `extra` = (slot,
    element) in that slot."""
    images = [Element.zero(n)] * (2 * n)
    for xk, d in zip(x, space):
        images = [a + xk * b for a, b in zip(images, d.l_images + d.r_images)]
    if extra is not None:
        images[extra[0]] = images[extra[0]] + extra[1]
    return Derivation(n, tuple(images[:n]), tuple(images[n:]))


def _flattened_coords(d, space):
    """Coordinates of d in span(space) by one exact solve over every
    (slot, word) the space and d touch, or None."""
    if not space:
        return None
    flat = [dd.l_images + dd.r_images for dd in space]
    target = d.l_images + d.r_images
    keys = list(
        dict.fromkeys(
            (slot, w) for imgs in flat + [target] for slot, g in enumerate(imgs) for w, _ in g.terms()
        )
    )
    rows = [
        {col: c for col, imgs in enumerate(flat) if (c := imgs[slot].coefficient(*w))}
        for slot, w in keys
    ]
    x, cert = RowReduction(len(keys), len(space), rows).solve(
        [target[slot].coefficient(*w) for slot, w in keys]
    )
    return x if cert is None else None


def _reference_derivation_cases():
    """n = 1 at m = -1, 0, 1 both ways, weighted n = 1 at m = 0, then seeded
    (n, m, into_I, weights) draws."""
    cases = [(1, m, into_I, None) for m in (-1, 0, 1) for into_I in (False, True)]
    cases += [(1, 0, False, (2,)), (1, 0, True, (3,)), (1, 4, False, (2,))]
    rng = random.Random("derivation-space-reference")
    for n, top in ((1, 6), (2, 4), (3, 2)):
        for into_I in (False, True):
            for weighted in (False, True):
                weights = tuple(rng.randint(1, 3) for _ in range(n)) if weighted else None
                cases.append((n, rng.randint(-1, top), into_I, weights))
    return cases


def _reference_lemma27_cases():
    cases = [(1, 1, 2), (1, 1, 6), (2, 1, 2), (2, 2, 4), (3, 2, 3), (4, 4, 3)]
    rng = random.Random("lemma27-reference")
    for n, top in ((1, 8), (2, 6), (3, 4), (4, 3)):
        for _ in range(2):
            cases.append((n, rng.randint(1, n), rng.randint(2, top)))
    return cases


class TestResidualReference:
    """Eliminating a reference residual system (conftest) gives the solver's
    answer member for member: the kernel vector of each free column, in
    column order."""

    @pytest.mark.parametrize("n, m, into_I, weights", _reference_derivation_cases())
    def test_derivation_space_is_the_eliminated_system(
        self, residual_system, n, m, into_I, weights
    ):
        columns, rows = residual_system.derivation(n, m, into_I, weights)
        red = RowReduction(len(rows), len(columns), rows)
        expected = []
        for vec in red.kernel_basis():
            images = [{} for _ in range(2 * n)]
            for (slot, w), c in zip(columns, vec):
                if c:
                    images[slot][w] = c
            expected.append([Element(n, img) for img in images])
        space = derivation_space(n, m, into_I, weights)
        assert [list(d.l_images + d.r_images) for d in space] == expected

    @pytest.mark.parametrize("n, i, d", _reference_lemma27_cases())
    def test_lemma27_is_the_eliminated_system(self, residual_system, n, i, d):
        unknown, rows = residual_system.lemma27(n, i, d)
        red = RowReduction(len(rows), len(unknown), rows)
        expected = [
            Element(n, {w: c for w, c in zip(unknown, vec) if c})
            for vec in red.kernel_basis()
        ]
        assert lemma27_solutions(n, i, d) == expected


def _dim_L(n, k):
    return comb(k + n - 1, n - 1) if k >= 0 else 0


@pytest.mark.parametrize("n, top", [(1, 7), (2, 4), (3, 2)])
@pytest.mark.parametrize("into_I", [False, True])
def test_derivation_space_dimension(n, top, into_I):
    # dim U_n(m) - dim L_m + n dim L_(m-1), plus n dim L_(m+1) for the lifts
    # and 1 for D(l_1) = r_1 at n = 1, m = 0: from the closed-form dims only
    for m in range(-3, top + 1):
        expected = dim(n, m) - _dim_L(n, m) + n * _dim_L(n, m - 1)
        if not into_I:
            expected += n * _dim_L(n, m + 1)
        if n == 1 and m == 0:
            expected += 1
        assert len(derivation_space(n, m, into_I)) == expected, m


@pytest.mark.parametrize(
    "into_I, members",
    [(False, [("r1", "0"), ("l1", "r1")]), (True, [("r1", "0")])],
)
def test_u1_degree_zero_members(into_I, members):
    # D(l_1) = r_1 is the member no inner, L-vanishing or lifted derivation
    # gives; pinned from the eliminated residual system
    space = derivation_space(1, 0, into_I)
    assert [(format_element(d.l_images[0]), format_element(d.r_images[0])) for d in space] == members


class TestWeightedSpaces:
    def test_weighted_slice_respects_weights(self):
        s = weighted_slice(2, 3, (1, 2))
        assert s
        for w in s:
            assert _wdegree(w, (1, 2)) == 3
        # r-words of weight 2 under (1,2): (1,1) and (2,)
        r_only = [w for w in weighted_slice(2, 2, (1, 2)) if not any(w.lexp)]
        assert {w.rword for w in r_only} == {(1, 1), (2,)}

    def test_weighted_derivation_space_contains_extension(self):
        d = extend_lnd_prop55(2, gen_l(2, 2))
        # under weights (1,2) both nonzero images have weight 2 in weight-1
        # slots, so the extension is homogeneous of weighted degree 1
        space = derivation_space(2, 1, weights=(1, 2))
        assert len(space) == 6  # pinned regression value
        assert derivation_coords(d, space) is not None
        for member in space:
            assert member.verified


class TestProp55UniquenessAtDeskScale:
    """Within the stated image shape the extension is the unique derivation.

    Unknowns: D(l_1) = the given univariate polynomial (forced, no ideal
    part), D(r_1) = sum_k h_k l_n^k r_n with unknown h_k, all other slots
    zero.  The relation residuals are affine in the h_k; the solver must find
    exactly one solution, namely the derivative coefficients.
    """

    def test_unique_solution_in_shape(self):
        n = 2
        for degg in (1, 2, 3):
            g = gen_l(n, 2) ** degg + (2 * gen_l(n, 2) if degg == 3 else Element.zero(n))
            dstar = extend_lnd_prop55(n, g)
            zero = Element.zero(n)
            shape = [
                Element.from_word(n, (0, k), (2,)) for k in range(degg)
            ]

            def candidate(hcoeffs):
                img = Element.zero(n)
                for c, base in zip(hcoeffs, shape):
                    img = img + c * base
                return Derivation(n, (g, zero), (img, zero))

            base = candidate([0] * len(shape))

            def residuals(d):
                found = violated_residuals(d)
                return [found.get(rel, zero) for rel in relations(n)]

            base_res = residuals(base)
            cols = []
            for k in range(len(shape)):
                unit = candidate([1 if t == k else 0 for t in range(len(shape))])
                cols.append(
                    [a - b for a, b in zip(residuals(unit), base_res)]
                )
            keys = []
            seen = set()
            for res_list in cols + [base_res]:
                for ridx, res in enumerate(res_list):
                    for w, _ in res.terms():
                        if (ridx, w) not in seen:
                            seen.add((ridx, w))
                            keys.append((ridx, w))
            rows = [
                [col[ridx].coefficient(w.lexp, w.rword) for col in cols]
                for ridx, w in keys
            ]
            b = [-base_res[ridx].coefficient(w.lexp, w.rword) for ridx, w in keys]
            res = solve(rows, b)
            assert res.solution is not None
            assert res.kernel == []  # exactly one solution in this shape
            found = candidate(res.solution)
            assert found.l_images == dstar.l_images
            assert found.r_images == dstar.r_images


def _derivation_rows_via_elements(n, m, into_I, weights):
    """The derivation-space system built the Element way: every relation
    residual of a unit-image Derivation probe, from its violations."""
    weights = weights or (1,) * n
    slot_slices = [weighted_slice(n, m + w, weights, into_I) for w in weights] * 2
    offsets = [0, *itertools.accumulate(map(len, slot_slices))]
    rels = list(relations(n))
    targets = [weighted_slice(n, m + weights[i - 1] + weights[j - 1], weights) for _, i, j in rels]
    positions = [_positions(t) for t in targets]
    row_offsets = [0, *itertools.accumulate(map(len, targets))]
    rows = [{} for _ in range(row_offsets[-1])]
    zero = Element.zero(n)
    for slot, s in enumerate(slot_slices):
        for local, w in enumerate(s):
            imgs = [zero] * (2 * n)
            imgs[slot] = Element(n, {w: 1})
            probe = Derivation(n, tuple(imgs[:n]), tuple(imgs[n:]))
            residuals = violated_residuals(probe)
            for rel, base, target in zip(rels, row_offsets, positions):
                for word, c in residuals.get(rel, zero).terms():
                    rows[base + target[word]][offsets[slot] + local] = c
    return rows


class TestAssembly:
    """The reference residual systems (conftest) are assembled from the
    straightening constants; each must equal the one built from Element
    products."""

    @pytest.mark.parametrize(
        "n, m, into_I, weights",
        [
            (1, 0, False, None),
            (1, 2, False, None),
            (1, 3, True, None),
            (2, -1, False, None),
            (2, 1, False, None),
            (2, 2, True, None),
            (2, 3, False, None),
            (2, 3, True, (1, 2)),
            (2, 4, False, (2, 1)),
            (3, 0, False, None),
            (3, 1, True, None),
            (3, 2, False, (1, 2, 3)),
        ],
    )
    def test_derivation_space_rows(self, residual_system, n, m, into_I, weights):
        columns, rows = residual_system.derivation(n, m, into_I, weights)
        slot_slices = [
            weighted_slice(n, m + w, weights or (1,) * n, into_I) for w in weights or (1,) * n
        ] * 2
        assert columns == [(slot, w) for slot, s in enumerate(slot_slices) for w in s]
        assert rows == _derivation_rows_via_elements(n, m, into_I, weights)

    @pytest.mark.parametrize(
        "n, t", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4)]
    )
    def test_ad_stack_rows(self, ad_stack, n, t):
        unknown, image, rows = ad_stack(n, t)
        assert unknown == graded_slice(n, t - 1, restrict_to_I=True)
        assert image == graded_slice(n, t, restrict_to_I=True)
        expected = []
        for i in range(1, n + 1):
            expected += operator_matrix(partial(commutator, gen_l(n, i)), unknown, image)
        assert rows == expected

    @pytest.mark.parametrize(
        "n, i, d",
        [(1, 1, 3)]
        + [(n, i, d) for n, d in ((2, 2), (2, 3), (2, 5), (3, 3), (3, 4)) for i in range(1, n + 1)],
    )
    def test_lemma27_rows(self, residual_system, n, i, d):
        li, ri = gen_l(n, i), gen_r(n, i)

        def condition(g):
            return -commutator(li, g) - mul(ri, g) - mul(g, ri)

        unknown, rows = residual_system.lemma27(n, i, d)
        assert unknown == graded_slice(n, d, restrict_to_I=True)
        target = graded_slice(n, d + 1, restrict_to_I=True)
        assert rows == operator_matrix(condition, unknown, target)

    def test_no_element_before_elimination(self, monkeypatch, residual_system, ad_stack):
        # neither probes nor per-column images: assembling a reference
        # system builds no Element
        count = [0]
        real_init = Element.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Element, "__init__", counting_init)
        for build in (
            lambda: residual_system.derivation(2, 2, into_I=True),
            lambda: residual_system.lemma27(2, 1, 3),
            lambda: ad_stack(2, 4),
        ):
            build()
        assert count == [0]

    def test_assembled_images_are_charged(self, ad_stack, monkeypatch):
        # some [l_1, w] with w of degree 3 in I_2 has three terms, and the
        # assembly builds no Element; with the slices' own charge lifted,
        # only the assembly's charge can refuse
        from lsea.algebra import TERM_BUDGET, TermBudgetExceeded

        monkeypatch.setattr(solver, "_charge", lambda count: None)
        token = TERM_BUDGET.set(2)
        try:
            ad_stack(2, 3)
            with pytest.raises(TermBudgetExceeded, match="has 3 terms"):
                ad_stack(2, 4)
        finally:
            TERM_BUDGET.reset(token)


class TestAnomalyPaths:
    def test_lemma27_empty_for_small_degree(self):
        with pytest.raises(DomainError):
            lemma27_solutions(2, 1, 1)

    @pytest.mark.parametrize(
        "n, i, d, digest",
        [
            pytest.param(2, 1, 2, "a76baddfde6a70479d62c175d2d4e1e9d10b03e9ad268aacfc21c0898e2f94a1", id="2-1-2"),
            pytest.param(2, 2, 3, "dd8cfe22e31d5e02adfd5cc781208662e66712457e170126a7c55cf1fa38d449", id="2-2-3"),
            pytest.param(3, 1, 3, "528c79ffc0ebf35723090cf62acd5814041bf4379b3a08a34f3180595f0dbc92", id="3-1-3"),
        ],
    )
    def test_lemma27_payload_pinned(self, monkeypatch, n, i, d, digest):
        # an l_i patched to zero leaves the residual -r_i g - g r_i, which
        # fails the re-check of the first member; the payload carries the
        # member and its residual
        first = lemma27_solutions(n, i, d)[0]
        monkeypatch.setattr(solver, "gen_l", lambda n, i: Element.zero(n))
        with pytest.raises(AnomalyError, match="failed its re-check") as exc:
            lemma27_solutions(n, i, d)
        payload = exc.value.payload
        assert (payload["n"], payload["i"], payload["degree"]) == (n, i, d)
        g = element_from_json(payload["solution"])
        ri = gen_r(n, i)
        assert g == first
        assert element_from_json(payload["residual"]) == -mul(ri, g) - mul(g, ri)
        encoded = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(encoded.encode()).hexdigest() == digest

    def test_lemma27_leading_span_payload(self, monkeypatch):
        # a leading coefficient r_1 lies outside span{r_i r_j}
        first = lemma27_solutions(2, 2, 3)[0]
        monkeypatch.setattr(solver, "lm_lc", lambda g: (None, gen_r(2, 1)))
        with pytest.raises(AnomalyError, match="outside the predicted span") as exc:
            lemma27_solutions(2, 2, 3)
        payload = exc.value.payload
        assert sorted(payload) == ["degree", "i", "n", "solution"]
        assert (payload["n"], payload["i"], payload["degree"]) == (2, 2, 3)
        assert element_from_json(payload["solution"]) == first

    def test_ad_kernel_dim_reported(self, ad_stack, capsys, tmp_path):
        # the CLI reports the constant 0 that ad_preimage's docstring proves;
        # the stacked reference system has no free column either
        for n, t in ((2, 2), (2, 3), (2, 5), (3, 2), (3, 4)):
            unknown, _, rows = ad_stack(n, t)
            assert RowReduction(len(rows), len(unknown), rows).free_cols == []
        g = Element.from_word(2, (0, 1), (1, 1, 2))
        path = tmp_path / "images.json"
        images = [element_to_json(commutator(gen_l(2, i), g)) for i in (1, 2)]
        path.write_text(json.dumps({"images": images}))
        assert cli_main(["solve", "ad-preimage", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["kernel_dim"] == 0

    def test_failed_recheck_raises_anomaly(self, subprocess_env):
        # patch the relation re-check to report a violation, under `python -O`,
        # which strips assert statements
        script = """
import sys
import lsea.maps
from lsea import AnomalyError, derivation_space, gen_r
real = lsea.maps.check_derivation
def broken(d):
    d, _ = real(d)
    return d, [("s1", 1, 2, gen_r(2, 1))]
lsea.maps.check_derivation = broken
try:
    derivation_space(2, 1, into_I=True)
except AnomalyError as err:
    payload = err.payload
    print(payload["map"]["kind"], payload["violations"][0]["relation"], sys.flags.optimize)
"""
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=subprocess_env,
        )
        assert proc.stdout.split() == ["derivation", "s1", "1"], proc.stderr

    def test_failed_ad_recheck_raises_anomaly(self, monkeypatch):
        # a closed-form inverse that triples each shuffle gives a wrong g;
        # the payload carries enough to recompute the failing residual
        g = Element.from_word(2, (1, 0), (1, 2)) + 3 * Element.from_word(2, (0, 0), (2, 1, 1))
        us = [commutator(gen_l(2, i), g) for i in (1, 2)]
        assert ad_preimage(us) == g
        real = solver._shuffle_letter
        monkeypatch.setattr(
            solver,
            "_shuffle_letter",
            lambda pairs, i, out: real([(k, 3 * c) for k, c in pairs], i, out),
        )
        with pytest.raises(AnomalyError) as exc:
            ad_preimage(us)
        payload = exc.value.payload
        assert (payload["n"], payload["degree"]) == (2, 4)
        assert [element_from_json(u) for u in payload["images"]] == us
        wrong = element_from_json(payload["g"])
        k = payload["k"]
        residual = element_from_json(payload["residual"])
        assert wrong != g and not residual.is_zero
        assert residual == commutator(gen_l(2, k), wrong) - us[k - 1]
        for j in range(1, k):
            assert commutator(gen_l(2, j), wrong) == us[j - 1]
