"""Exact rational linear algebra: RREF, solving, kernels, certificates.

Everything here works over `fractions.Fraction`.  A system is a list of
sparse rows, column->value dicts, because the operator matrices arising from
graded slices are mostly zeros.  Dense row lists enter only through
`reduction_of`, and `system_json` is the one dense view, for anomaly payloads.
Elimination indexes the rows holding each column and logs its row
operations; right-hand sides and certificates replay that log.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    """x as an exact rational: a Fraction as is, an int or a str converted;
    anything else, a float included, raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class RowReduction:
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


def reduction_of(rows_data) -> RowReduction:
    """Reduction of a dense matrix given as a list of rows; zeros are dropped."""
    rows = [[as_fraction(x) for x in row] for row in rows_data]
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix rows")
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    return RowReduction(len(rows), ncols, sparse)


def system_json(sparse_rows, cols: int) -> dict:
    """Dense JSON view of a sparse system, entries as exact strings."""
    return {
        "rows": len(sparse_rows),
        "cols": cols,
        "entries": [
            [str(row.get(j, 0)) for j in range(cols)] for row in sparse_rows
        ],
    }


@dataclass
class SolveResult:
    """Outcome of solving A x = b exactly."""

    solution: list[Fraction] | None
    kernel: list[list[Fraction]]
    certificate: list[Fraction] | None

    @property
    def consistent(self) -> bool:
        return self.solution is not None


def solve(rows_data, b) -> SolveResult:
    """Particular solution plus kernel basis, or an inconsistency certificate."""
    red = reduction_of(rows_data)
    x, cert = red.solve(b)
    if x is None:
        return SolveResult(None, [], cert)
    return SolveResult(x, red.kernel_basis(), None)


def invert_dense(rows_data) -> list[list[Fraction]]:
    """Inverse of a small square matrix; raises ValueError if singular."""
    red = reduction_of(rows_data)
    k = red.rows
    if red.cols != k:
        raise ValueError("only square matrices can be inverted")
    if red.rank != k:
        raise ValueError("matrix is singular")
    cols = []
    for c in range(k):
        x, _ = red.solve([_ONE if i == c else _ZERO for i in range(k)])
        cols.append(x)
    return [[col[i] for col in cols] for i in range(k)]
