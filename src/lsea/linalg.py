"""Exact rational linear algebra: RREF, solving, kernels, certificates.

Everything here works over `fractions.Fraction`.  Rows are kept as sparse
column->value dicts because the operator matrices arising from graded slices
are mostly zeros.  Elimination indexes the rows holding each column and logs
its row operations; right-hand sides and certificates replay that log.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense exact matrix; the external face of the solver."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows_data) -> "RationalMatrix":
        entries = tuple(tuple(Fraction(x) for x in row) for row in rows_data)
        nrows = len(entries)
        ncols = len(entries[0]) if entries else 0
        if any(len(row) != ncols for row in entries):
            raise ValueError("ragged matrix rows")
        return cls(nrows, ncols, entries)

    @classmethod
    def identity(cls, k: int) -> "RationalMatrix":
        return cls.from_rows(
            [[_ONE if i == j else _ZERO for j in range(k)] for i in range(k)]
        )

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, tuple((_ZERO,) * cols for _ in range(rows)))

    def matvec(self, x) -> list[Fraction]:
        if len(x) != self.cols:
            raise ValueError("dimension mismatch in matvec")
        return [sum((row[j] * x[j] for j in range(self.cols)), _ZERO) for row in self.entries]

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(x) for x in row] for row in self.entries],
        }


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
        b = [Fraction(x) for x in b]
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


def reduction_of(matrix: RationalMatrix) -> RowReduction:
    sparse = [
        {j: v for j, v in enumerate(row) if v} for row in matrix.entries
    ]
    return RowReduction(matrix.rows, matrix.cols, sparse)


@dataclass
class SolveResult:
    """Outcome of solving A x = b exactly."""

    solution: list[Fraction] | None
    kernel: list[list[Fraction]]
    certificate: list[Fraction] | None

    @property
    def consistent(self) -> bool:
        return self.solution is not None


def solve(matrix: RationalMatrix, b) -> SolveResult:
    """Particular solution plus kernel basis, or an inconsistency certificate."""
    red = reduction_of(matrix)
    x, cert = red.solve(b)
    if x is None:
        return SolveResult(None, [], cert)
    return SolveResult(x, red.kernel_basis(), None)


def invert_dense(rows_data) -> list[list[Fraction]]:
    """Inverse of a small square matrix; raises ValueError if singular."""
    a = RationalMatrix.from_rows(rows_data)
    if a.rows != a.cols:
        raise ValueError("only square matrices can be inverted")
    red = reduction_of(a)
    if red.rank != a.rows:
        raise ValueError("matrix is singular")
    cols = []
    for k in range(a.rows):
        e = [_ONE if i == k else _ZERO for i in range(a.rows)]
        x, _ = red.solve(e)
        cols.append(x)
    return [[cols[j][i] for j in range(a.rows)] for i in range(a.rows)]
