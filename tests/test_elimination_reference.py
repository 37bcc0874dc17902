"""The fraction-free `RowReduction` against a plain Fraction Gauss-Jordan
reference, and the Fraction-free paths of the solver.

`FractionRowReduction` is the elimination `lsea.linalg` ran before it moved
to int rows, kept here unchanged as an independent reference: the same
pivot rule over rational rows, normalising each pivot row to 1.  Both must
give the same pivots, kernels, solutions and certificates, string for
string, on seeded systems of every shape the solver can meet.
"""

import random
from collections import defaultdict
from fractions import Fraction

import pytest
from conftest import _positions

from lsea import Element, commutator, gen_l, solver
from lsea.algebra import TERM_BUDGET, TermBudgetExceeded, as_fraction
from lsea.cli import main
from lsea.linalg import RowReduction
from lsea.verify import rand_homogeneous_I

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FractionRowReduction:
    """Reduced row echelon form of a sparse matrix, as a replayable operation log.

    Columns are eliminated left to right; a column's pivot is the unused row
    holding it with the fewest nonzeros, then the lowest index, so runs are
    deterministic.  A column -> rows index, kept through fill-in and
    cancellation, limits each step to the rows holding its column.  A step is
    logged as (pivot row, 1/pivot, [(row, factor), ...]); `solve` replays the
    log on b and, only when b is inconsistent, rebuilds from it a left null
    vector certifying that.
    """

    def __init__(self, rows: int, cols: int, sparse_rows):
        self.rows = rows
        self.cols = cols
        work = [dict(r) for r in sparse_rows]
        if len(work) != rows:
            raise ValueError("row count mismatch")
        holders = defaultdict(set)
        for i, row in enumerate(work):
            for j in row:
                holders[j].add(i)

        log = []
        pivot_of_col: dict[int, int] = {}
        free: list[int] = []
        unused = set(range(rows))
        for col in range(cols):
            holding = sorted(i for i in holders.pop(col, ()) if work[i][col])
            candidates = [i for i in holding if i in unused]
            if not candidates:
                free.append(col)
                continue
            piv = min(candidates, key=lambda i: (len(work[i]), i))
            unused.discard(piv)
            inv = _ONE / work[piv][col]
            if inv != 1:
                work[piv] = {j: v * inv for j, v in work[piv].items()}
            prow = work[piv]
            steps = []
            for i in holding:
                if i == piv:
                    continue
                wi = work[i]
                factor = wi[col]
                for j, v in prow.items():
                    acc = wi.get(j, _ZERO) - factor * v
                    if acc:
                        if j not in wi:
                            holders[j].add(i)
                        wi[j] = acc
                    elif j in wi:
                        del wi[j]
                        holders[j].discard(i)
                steps.append((i, factor))
            log.append((piv, inv, steps))
            pivot_of_col[col] = piv

        self._work = work
        self._log = log
        self.pivot_of_col = pivot_of_col
        self.pivot_cols = sorted(pivot_of_col)
        self.free_cols = free
        self.rank = len(self.pivot_cols)
        self._nonpivot_rows = sorted(unused)

    def _certificate(self, row: int) -> list[Fraction]:
        """Row `row` of the product of the logged operations, y with y*A = 0
        when `row` reduced to zero; rebuilt by applying the log in reverse."""
        y = {row: _ONE}
        for piv, inv, steps in reversed(self._log):
            acc = y.get(piv, _ZERO) - sum((f * y[i] for i, f in steps if i in y), _ZERO)
            y[piv] = acc * inv
        return [y.get(j, _ZERO) for j in range(self.rows)]

    def solve(self, b):
        """(particular solution, None) or (None, left-null certificate).

        The particular solution sets every free variable to zero, which keeps
        its support inside the pivot columns, the leftmost deterministic
        choice in the ambient column order.  The certificate y satisfies
        y*A = 0 and y*b != 0.
        """
        if len(b) != self.rows:
            raise ValueError("dimension mismatch in solve")
        b = [as_fraction(x) for x in b]
        for piv, inv, steps in self._log:
            bp = b[piv] = b[piv] * inv
            if bp:
                for i, f in steps:
                    b[i] -= f * bp
        for i in self._nonpivot_rows:
            if b[i]:
                return None, self._certificate(i)
        x = [_ZERO] * self.cols
        for col, row in self.pivot_of_col.items():
            x[col] = b[row]
        return x, None

    def kernel_basis(self) -> list[list[Fraction]]:
        """One kernel vector per free column, deterministic order."""
        basis = []
        for f in self.free_cols:
            vec = [_ZERO] * self.cols
            vec[f] = _ONE
            for col, row in self.pivot_of_col.items():
                coef = self._work[row].get(f)
                if coef:
                    vec[col] = -coef
            basis.append(vec)
        return basis


# -- seeded systems ----------------------------------------------------------------


def _entry(rng, kind):
    num = rng.choice([k for k in range(-9, 10) if k])
    if kind == "integer" or (kind == "mixed" and rng.random() < 0.5):
        return num
    return Fraction(num, rng.choice([1, 2, 3, 4, 6, 9]))


def _random_system(rng, kind, rows, cols, density):
    """Sparse rows of one kind: `integer` (ints), `rational` (Fractions),
    `mixed` (both, within rows), `rank_deficient` (rows combined from a few
    integer rows), `explicit_zeros` (integer rows that also store zeros).
    Some rows are empty and some columns unused in every kind."""
    unused_cols = set(rng.sample(range(cols), cols // 5))
    live = [j for j in range(cols) if j not in unused_cols]

    def row(entry_kind):
        return {j: _entry(rng, entry_kind) for j in live if rng.random() < density}

    if kind == "rank_deficient":
        base = [row("integer") for _ in range(max(1, rows // 4))]
        out = []
        for _ in range(rows):
            acc: dict = {}
            for b in rng.sample(base, rng.randint(1, len(base))):
                c = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
                for j, v in b.items():
                    acc[j] = acc.get(j, 0) + c * v
            out.append({j: v for j, v in acc.items() if v})
    elif kind == "explicit_zeros":
        out = [row("integer") for _ in range(rows)]
        for r in out:
            for j in rng.sample(live, min(len(live), 2)):
                r.setdefault(j, 0)
    else:
        out = [row(kind) for _ in range(rows)]
    for i in rng.sample(range(rows), rows // 6):
        out[i] = {}
    return out


SHAPES = {"square": (12, 12), "tall": (40, 9), "wide": (8, 36), "large": (60, 45)}
KINDS = ("integer", "rational", "mixed", "rank_deficient", "explicit_zeros")


def _strs(vec):
    return None if vec is None else [str(x) for x in vec]


def _dense_value(row, x):
    return sum((Fraction(v) * x[j] for j, v in row.items()), _ZERO)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", KINDS)
def test_matches_fraction_reference(kind, shape):
    rows, cols = SHAPES[shape]
    rng = random.Random(f"reference/{kind}/{shape}")
    for trial in range(6):
        density = (0.08, 0.2, 0.45)[trial % 3]
        system = _random_system(rng, kind, rows, cols, density)
        snapshot = [dict(r) for r in system]
        red = RowReduction(rows, cols, system)
        ref = FractionRowReduction(
            rows, cols, [{j: Fraction(v) for j, v in r.items()} for r in system]
        )
        assert system == snapshot
        assert red.pivot_cols == ref.pivot_cols
        assert red.free_cols == ref.free_cols
        assert red.pivot_of_col == ref.pivot_of_col
        assert red.rank == ref.rank
        assert [_strs(v) for v in red.kernel_basis()] == [
            _strs(v) for v in ref.kernel_basis()
        ]
        x_true = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5])) for _ in range(cols)]
        consistent = [_dense_value(r, x_true) for r in system]
        arbitrary = [Fraction(rng.randint(-4, 4), rng.choice([1, 3])) for _ in range(rows)]
        for b in (consistent, arbitrary, [0] * rows):
            got, want = red.solve(b), ref.solve(b)
            assert [_strs(v) for v in got] == [_strs(v) for v in want]
        assert red.solve(consistent)[1] is None


def test_sparse_kernel_vectors_are_the_dense_basis():
    # the int rows `echelon_rows` reads are the reference's reduced rows, and
    # each dense kernel vector is read off them: 1 in its free column and,
    # in each pivot column, minus that row's entry in the free column
    rng = random.Random(77)
    for kind in KINDS:
        system = _random_system(rng, kind, 20, 24, 0.15)
        red = RowReduction(20, 24, system)
        ref = FractionRowReduction(
            20, 24, [{j: Fraction(v) for j, v in r.items()} for r in system]
        )
        rows = red.echelon_rows()
        assert len(rows) == red.rank
        for (den, row), col in zip(rows, red.pivot_cols):
            assert den > 0 and row[col] == den
            assert all(type(v) is int and v for v in row.values())
            assert {j: Fraction(v, den) for j, v in row.items()} == {
                j: v for j, v in ref._work[ref.pivot_of_col[col]].items() if v
            }
        basis = red.kernel_basis()
        assert len(basis) == len(red.free_cols)
        for dense, f in zip(basis, red.free_cols):
            expected = {f: _ONE}
            for (den, row), col in zip(rows, red.pivot_cols):
                if f in row:
                    expected[col] = Fraction(-row[f], den)
            assert {j: v for j, v in enumerate(dense) if v} == expected
            assert all(_dense_value(r, dense) == 0 for r in system)


# -- no Fraction while an integer system is eliminated ------------------------------


@pytest.fixture
def fraction_count(monkeypatch):
    """[count, counting]: Fractions built while counting[0] is true.  From
    Python 3.12 on, Fraction arithmetic builds its results through
    `_from_coprime_ints`, which skips `__new__`, so that is counted too."""
    state = [0, [True]]
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        state[0] += state[1][0]
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in vars(Fraction):
        real_coprime = Fraction._from_coprime_ints

        def counting_coprime(cls, *args):
            state[0] += state[1][0]
            return real_coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return state


def test_integer_elimination_builds_no_fraction(
    fraction_count, ad_stack, residual_system, monkeypatch
):
    columns, derivation_rows = residual_system.derivation(2, 3)
    unknown27, lemma27_rows = residual_system.lemma27(2, 1, 4)
    unknown, _, stacked = ad_stack(3, 4)
    families = []
    real = solver.RowReduction

    def capture(rows, cols, sparse_rows):
        families.append((rows, cols, [dict(r) for r in sparse_rows]))
        return real(rows, cols, sparse_rows)

    monkeypatch.setattr(solver, "RowReduction", capture)
    solver.derivation_space(2, 3)
    systems = [
        (len(derivation_rows), len(columns), derivation_rows),
        (len(lemma27_rows), len(unknown27), lemma27_rows),
        (len(stacked), len(unknown), stacked),
        families[0],
    ]
    fraction_count[0] = 0
    reds = [RowReduction(*system) for system in systems]
    assert [len(red.free_cols) for red in reds[:3]] == [38, 6, 0]
    assert len(reds[3].echelon_rows()) == 38
    assert fraction_count[0] == 0


@pytest.mark.parametrize("n, t", [(n, t) for n in (2, 3) for t in range(2, 7)])
def test_stacked_elimination_gives_the_closed_form(ad_stack, n, t):
    # the stacked ad_{l_i} system, eliminated, has kernel 0 and the same g
    # as ad_preimage's closed form, on seeded images of every shape
    unknown, image, rows = ad_stack(n, t)
    red = RowReduction(len(rows), len(unknown), rows)
    assert red.free_cols == []
    positions = _positions(image)
    rng = random.Random(f"closed-form/{n}/{t}")
    for _ in range(4):
        g = rand_homogeneous_I(rng, n, t - 1) / rng.choice([1, 2, 3, 7])
        us = [commutator(gen_l(n, i), g) for i in range(1, n + 1)]
        b = [Fraction(0)] * len(rows)
        for i, u in enumerate(us):
            for w, c in u.terms():
                b[i * len(image) + positions[w]] = c
        x, cert = red.solve(b)
        eliminated = Element(n, [(w, c) for w, c in zip(unknown, x) if c])
        assert cert is None and eliminated == solver.ad_preimage(us) == g


def test_kernel_vectors_become_derivations_without_fractions(
    fraction_count, monkeypatch
):
    # the per-member re-check multiplies elements and is not counted here
    counting = fraction_count[1]
    real_require = solver.require_verified

    def uncounted(*args, **kwargs):
        counting[0] = False
        try:
            return real_require(*args, **kwargs)
        finally:
            counting[0] = True

    monkeypatch.setattr(solver, "require_verified", uncounted)
    fraction_count[0] = 0
    space = solver.derivation_space(2, 3)
    assert len(space) == 38 and fraction_count[0] == 0
    assert solver.lemma27_solutions(2, 1, 4) and fraction_count[0] == 0


# -- elimination fill-in is charged to the term budget --------------------------------


def test_fill_in_charged_per_step():
    # row 1 becomes row 1 - row 0, twelve entries from two
    system = [{j: 1 for j in range(12)}, {0: 1, 12: 1}]
    token = TERM_BUDGET.set(12)
    try:
        RowReduction(2, 13, system)
        TERM_BUDGET.set(11)
        with pytest.raises(TermBudgetExceeded, match="has 12 terms"):
            RowReduction(2, 13, system)
    finally:
        TERM_BUDGET.reset(token)


def test_derspace_fill_in_over_budget_exits_2(capsys, monkeypatch):
    # with weights (1, 2), the w-degree-2 slice of I_2 and every family
    # member of the w-degree-2 derivations of U_2 into I_2 have at most 6
    # terms, and the echelon pass over the members grows a row to 7
    stage = []
    real = solver.RowReduction

    def tracked(rows, cols, sparse_rows):
        stage.append("eliminating")
        out = real(rows, cols, sparse_rows)
        stage.append("eliminated")
        return out

    monkeypatch.setattr(solver, "RowReduction", tracked)
    argv = ["-n", "2", "--max-terms", "6", "solve", "derspace", "--wdeg", "2"]
    code = main([*argv, "--weights", "1,2", "--into-i"])
    out, err = capsys.readouterr()
    assert (code, out, stage) == (2, "", ["eliminating"])
    assert err == (
        "lsea: term budget exceeded: intermediate result has 7 terms, "
        "over the --max-terms bound 6\n"
    )
