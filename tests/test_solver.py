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
from operator import attrgetter

import pytest

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
from lsea.cli import main as cli_main
from lsea.linalg import RowReduction
from lsea.maps import (
    derivation_residual,
    derivation_residual_terms,
    relation_words,
    relations,
)
from lsea.verify import example41_derivation, rand_homogeneous_I, rand_rpoly

_slice_index = attrgetter("index")  # word -> position map of a GradedSlice


def column(g, s):
    """Coordinate column of a homogeneous element in a slice basis; a term
    outside the slice raises DomainError (from `solver._position`)."""
    col = [Fraction(0)] * s.dim
    for w, c in g.terms():
        col[solver._position(w, s)] = c
    return col


def operator_matrix(op, source, target):
    """Reference: sparse rows of a linear operator, one per target basis word,
    from the Element image of each source basis word."""
    rows = [{} for _ in range(target.dim)]
    for col, w in enumerate(source.basis):
        for pos, c in enumerate(column(op(Element(source.n, {w: 1})), target)):
            if c:
                rows[pos][col] = c
    return rows


def matvec(a, x):
    return [sum((aij * xj for aij, xj in zip(row, x)), Fraction(0)) for row in a]


class TestSlices:
    def test_dim_2_2_is_11(self):
        assert dim(2, 2) == 11
        assert graded_slice(2, 2).dim == 11

    def test_small_dims(self):
        assert dim(1, 0) == 1
        assert dim(1, 1) == 2
        assert graded_slice(1, 1).basis == (
            ((1,), ()),
            ((0,), (1,)),
        )

    def test_enumeration_matches_closed_form(self):
        for n in (1, 2, 3):
            for m in range(6):
                s = graded_slice(n, m)
                assert s.dim == dim(n, m)
                assert s.dim == sum(
                    comb(a + n - 1, n - 1) * n ** (m - a) for a in range(m + 1)
                )
                assert len(set(s.basis)) == s.dim

    def test_weighted_slice_standard_agrees(self):
        for n in (1, 2):
            for m in range(4):
                assert weighted_slice(n, m, (1,) * n).basis == graded_slice(n, m).basis

    def test_slice_bases_pinned(self):
        # SHA-256 of every basis for n <= 3, m <= 6, with and without I,
        # recorded from the stars-and-bars enumerator of the unit-weight slice
        lines = []
        for n in (1, 2, 3):
            for m in range(-1, 7):
                for restrict in (False, True):
                    s = graded_slice(n, m, restrict)
                    basis = [tuple(map(tuple, w)) for w in s.basis]
                    lines.append(repr((n, m, restrict, basis)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "cd08e60c43e7347878ac74aea5ed78ed8b45a0450b5cb67deb93cc8b0652fc74"

    def test_weighted_slice_needs_positive_weights(self):
        with pytest.raises(DomainError):
            weighted_slice(2, 3, (1, 0))

    def test_index_kept_on_the_slice(self):
        s = graded_slice(2, 3, restrict_to_I=True)
        assert s.index is s.index
        assert [s.index[w] for w in s.basis] == list(range(s.dim))
        # the map is not a field: equality and hashing still see the basis only
        copy = solver.GradedSlice(s.n, s.degree, s.weights, s.basis)
        assert copy == s and hash(copy) == hash(s)
        assert copy.index == s.index


class TestOperatorMatrix:
    def test_ad_l1_on_degree_one(self):
        src = graded_slice(1, 1)
        dst = graded_slice(1, 2)
        m = operator_matrix(ad(gen_l(1, 1)), src, dst)
        # basis of src is (l1, r1); ad_l1 kills l1 and sends r1 to -r1*r1
        assert len(m) == dst.dim
        col_l1 = [row.get(0, 0) for row in m]
        assert all(x == 0 for x in col_l1)
        r1r1_pos = _slice_index(dst)[((0,), (1, 1))]
        col_r1 = [row.get(1, 0) for row in m]
        assert col_r1[r1r1_pos] == -1
        assert sum(1 for x in col_r1 if x) == 1

    def test_identity_matrix(self):
        s = graded_slice(2, 2)
        m = operator_matrix(lambda g: g, s, s)
        assert m == [{i: 1} for i in range(s.dim)]

    def test_left_mul_injective(self):
        src = graded_slice(2, 1)
        dst = graded_slice(2, 2)
        m = operator_matrix(lambda g: mul(gen_l(2, 1), g), src, dst)
        red = RowReduction(dst.dim, src.dim, m)
        assert red.rank == src.dim

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
        assert not res.consistent
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
        assert solve(m, tcol).consistent

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
print(len(u), len(v), weighted_slice(1, 150, (1,)).dim)
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
                for kind, i, j in relations(n):
                    res = derivation_residual(probe, kind, i, j)
                    if slot not in derivation_residual_terms(n, kind, i, j):
                        assert res.is_zero, (n, slot, kind, i, j)

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


class TestWeightedSpaces:
    def test_weighted_slice_respects_weights(self):
        s = weighted_slice(2, 3, (1, 2))
        assert s.dim > 0
        for w in s.basis:
            assert w.wdegree((1, 2)) == 3
        # r-words of weight 2 under (1,2): (1,1) and (2,)
        r_only = [w for w in weighted_slice(2, 2, (1, 2)).basis if not any(w.lexp)]
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
                out = []
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        out.append(derivation_residual(d, "s1", i, j))
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        out.append(derivation_residual(d, "s2", i, j))
                return out

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
            assert res.consistent
            assert res.kernel == []  # exactly one solution in this shape
            found = candidate(res.solution)
            assert found.l_images == dstar.l_images
            assert found.r_images == dstar.r_images


def _rows_handed_to_elimination(monkeypatch, build):
    """Sparse rows of every system `build()` hands to solver.RowReduction."""
    captured = []
    real = solver.RowReduction

    def capture(rows, cols, sparse_rows):
        captured.append([dict(r) for r in sparse_rows])
        return real(rows, cols, sparse_rows)

    monkeypatch.setattr(solver, "RowReduction", capture)
    build()
    return captured


def _derivation_rows_via_elements(n, m, into_I, weights):
    """The derivation-space system built the Element way: every relation
    residual of a unit-image Derivation probe, by derivation_residual."""
    weights = weights or (1,) * n
    slot_slices = [weighted_slice(n, m + w, weights, into_I) for w in weights] * 2
    offsets = [0, *itertools.accumulate(s.dim for s in slot_slices)]
    rels = list(relations(n))
    targets = [weighted_slice(n, m + weights[i - 1] + weights[j - 1], weights) for _, i, j in rels]
    row_offsets = [0, *itertools.accumulate(t.dim for t in targets)]
    rows = [{} for _ in range(row_offsets[-1])]
    zero = Element.zero(n)
    for slot, s in enumerate(slot_slices):
        for local, w in enumerate(s.basis):
            imgs = [zero] * (2 * n)
            imgs[slot] = Element(n, {w: 1})
            probe = Derivation(n, tuple(imgs[:n]), tuple(imgs[n:]))
            for (kind, i, j), base, target in zip(rels, row_offsets, targets):
                res = derivation_residual(probe, kind, i, j)
                for word, c in res.terms():
                    rows[base + _slice_index(target)[word]][offsets[slot] + local] = c
    return rows


class TestAssembly:
    """The solver assembles its systems from the straightening constants;
    each must equal the one built from Element products."""

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
    def test_derivation_space_rows(self, monkeypatch, n, m, into_I, weights):
        built = _rows_handed_to_elimination(
            monkeypatch, lambda: derivation_space(n, m, into_I, weights)
        )
        assert built == [_derivation_rows_via_elements(n, m, into_I, weights)]

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
    def test_lemma27_rows(self, monkeypatch, n, i, d):
        li, ri = gen_l(n, i), gen_r(n, i)

        def condition(g):
            return -commutator(li, g) - mul(ri, g) - mul(g, ri)

        built = _rows_handed_to_elimination(monkeypatch, lambda: lemma27_solutions(n, i, d))
        unknown = graded_slice(n, d, restrict_to_I=True)
        target = graded_slice(n, d + 1, restrict_to_I=True)
        assert built == [operator_matrix(condition, unknown, target)]

    def test_no_element_before_elimination(self, monkeypatch, ad_stack):
        # neither probes nor per-column images: the first Element of a solve
        # is built after its system has been handed to the elimination
        count = [0]
        seen = []
        real_init = Element.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Element, "__init__", counting_init)
        real = solver.RowReduction

        def capture(rows, cols, sparse_rows):
            seen.append(count[0])
            return real(rows, cols, sparse_rows)

        monkeypatch.setattr(solver, "RowReduction", capture)

        def stacked():
            unknown, _, rows = ad_stack(2, 4)
            solver.RowReduction(len(rows), unknown.dim, rows)

        for build in (
            lambda: derivation_space(2, 2, into_I=True),
            lambda: lemma27_solutions(2, 1, 3),
            stacked,
        ):
            count[0] = 0
            build()
        assert seen == [0, 0, 0]


    def test_assembled_images_are_charged(self, ad_stack):
        # some [l_1, w] with w of degree 3 in I_2 has three terms, and no
        # Element is built before the elimination, so only the assembly's own
        # charge can refuse
        from lsea.algebra import TERM_BUDGET, TermBudgetExceeded

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
            (2, 1, 2, "2108d92302a7f56b49b13133029f50ce394d15190285440aae905c0f4f71131a"),
            (2, 2, 3, "5bd6ea75109a135764ffd3abd5bee621f2e4441da64e77778af4bebd26b6951f"),
            (3, 1, 3, "8cc74c139a8c5183401cbb9683863573b754a05461fbca746ff4bb0fe859eb95"),
        ],
    )
    def test_lemma27_payload_pinned(self, monkeypatch, n, i, d, digest):
        # a leading coefficient r_1 lies outside span{r_i r_j}; the payload,
        # system matrix included, was recorded from the dense-matrix assembly
        monkeypatch.setattr(solver, "lm_lc", lambda g: (None, gen_r(n, 1)))
        with pytest.raises(AnomalyError) as exc:
            lemma27_solutions(n, i, d)
        payload = json.dumps(exc.value.payload, sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_ad_kernel_dim_reported(self, ad_stack, capsys, tmp_path):
        # the CLI reports the constant 0 that ad_preimage's docstring proves;
        # the stacked reference system has no free column either
        for n, t in ((2, 2), (2, 3), (2, 5), (3, 2), (3, 4)):
            unknown, _, rows = ad_stack(n, t)
            assert RowReduction(len(rows), unknown.dim, rows).free_cols == []
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
