"""Exact rational linear algebra: RREF, solving, kernels, certificates.

A system is a list of sparse rows, column->value dicts, because the operator
matrices arising from graded slices are mostly zeros; entries are exact
rationals.  Elimination is fraction-free: each row is scaled once to ints,
by the lcm of its denominators, and every step replaces a row by an int
combination of it and the pivot row, with its content divided out.  The
reduced rows are read off those int rows as numerators over their pivots
(`echelon_rows`, the row space a derivation space is read from), and
kernel bases from the same rows.  There is no operation log: solutions,
certificates and inverses are read off the echelon forms of small augmented
systems [M | B] with M square and invertible, whose reduced form is
[I | M^-1 B].  Dense row lists enter only through `reduction_of` and
`invert_dense`.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .algebra import _charge, as_fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)
_INT = {int}


def _int_row(row: dict) -> dict:
    """row times the lcm of the denominators of its entries, as ints."""
    if set(map(type, row.values())) <= _INT:
        return dict(row)
    row = {j: as_fraction(v) for j, v in row.items()}
    den = lcm(*[c.denominator for c in row.values()])
    return {j: c.numerator * (den // c.denominator) for j, c in row.items()}


class RowReduction:
    """Reduced row echelon form of a sparse matrix, kept as int rows.

    Columns are eliminated left to right; a column's pivot is the unused row
    holding it with the fewest nonzeros, then the lowest index, so runs are
    deterministic.  A column -> rows index, kept through fill-in and
    cancellation, limits each step to the rows holding its column.

    Rows are kept as ints: row i of the rational elimination is the int row
    divided by a scale.  A step with pivot value pv turns a row w holding
    entry a into (pv/g) w - (a/g) prow, with g = gcd(pv, a) signed like pv,
    and divides out its content.  Scaling keeps supports, so pivots are
    those of the rational elimination.  The longest row a step updates is
    charged to the term budget.  The input rows are kept, not copied, for
    `solve`.
    """

    def __init__(self, rows: int, cols: int, sparse_rows):
        self.rows = rows
        self.cols = cols
        self._input = list(sparse_rows)
        work = [_int_row(r) for r in self._input]
        if len(work) != rows:
            raise ValueError("row count mismatch")
        holders = defaultdict(set)
        for i, row in enumerate(work):
            for j in row:
                holders[j].add(i)

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
            prow = work[piv]
            pv = prow[col]
            longest = 0
            for i in holding:
                if i == piv:
                    continue
                wi = work[i]
                a = wi[col]
                g = gcd(pv, a) if pv > 0 else -gcd(pv, a)
                p, q = pv // g, a // g
                if p != 1:
                    for j in wi:
                        wi[j] *= p
                for j, v in prow.items():
                    acc = wi.get(j, 0) - q * v
                    if acc:
                        if j not in wi:
                            holders[j].add(i)
                        wi[j] = acc
                    elif j in wi:
                        del wi[j]
                        holders[j].discard(i)
                c = gcd(*wi.values()) or 1
                if c > 1:
                    for j in wi:
                        wi[j] //= c
                if len(wi) > longest:
                    longest = len(wi)
            _charge(longest)
            pivot_of_col[col] = piv

        self._work = work
        self.pivot_of_col = pivot_of_col
        self.pivot_cols = sorted(pivot_of_col)
        self.free_cols = free
        self.rank = len(self.pivot_cols)
        self._nonpivot_rows = sorted(unused)

    def solve(self, b):
        """(particular solution, None) or (None, left-null certificate).

        With P the pivot rows and C the pivot columns, A[P, C] is invertible.
        The particular solution sets every free variable to zero, which keeps
        its support inside C, the leftmost deterministic choice in the
        ambient column order; it is the solution of A[P, C] x = b[P].  When
        a non-pivot row i misses b_i, the first in ascending order, the
        certificate is y = e_i - c with c A[P, C] = A[i, C]; then y*A = 0
        and y*b = b_i - A_i x != 0.
        """
        if len(b) != self.rows:
            raise ValueError("dimension mismatch in solve")
        b = [as_fraction(x) for x in b]
        cols = self.pivot_cols
        at = {col: t for t, col in enumerate(cols)}
        prows = [self.pivot_of_col[col] for col in cols]
        a_pc = [{at[j]: v for j, v in self._input[p].items() if j in at} for p in prows]
        x = [_ZERO] * self.cols
        for col, (v,) in zip(cols, _solve_square(a_pc, [[b[p]] for p in prows])):
            x[col] = v
        for i in self._nonpivot_rows:
            row = self._input[i]
            if b[i] != sum((as_fraction(v) * x[j] for j, v in row.items()), _ZERO):
                a_cp = [{s: r[t] for s, r in enumerate(a_pc) if t in r} for t in range(len(cols))]
                c = _solve_square(a_cp, [[row.get(j, 0)] for j in cols])
                y = [_ONE if j == i else _ZERO for j in range(self.rows)]
                for p, (cp,) in zip(prows, c):
                    y[p] = -cp
                return None, y
        return x, None

    def echelon_rows(self) -> list[tuple[int, dict[int, int]]]:
        """The nonzero rows of the reduced echelon form, in pivot column
        order, each as (den, {col: numerator}) with den > 0: over den it holds
        1 in its own pivot column and 0 in every other."""
        out = []
        for col in self.pivot_cols:
            row = self._work[self.pivot_of_col[col]]
            sign = 1 if row[col] > 0 else -1
            out.append((sign * row[col], {j: sign * v for j, v in row.items() if v}))
        return out

    def kernel_basis(self) -> list[list[Fraction]]:
        """One kernel vector per free column, in column order, as a dense
        Fraction list: 1 in its free column and, in a pivot column, the
        negated entry of that column's reduced row."""
        basis = {f: [_ZERO] * f + [_ONE] + [_ZERO] * (self.cols - f - 1) for f in self.free_cols}
        for col, (den, row) in zip(self.pivot_cols, self.echelon_rows()):
            for j, v in row.items():
                if j in basis:
                    basis[j][col] = Fraction(-v, den)
        return list(basis.values())


def _solve_square(square, rhs) -> list[list[Fraction]]:
    """X with M X = B, read off the reduced echelon form [I | X] of [M | B],
    for M k x k given as sparse rows and B as k dense rows of one length;
    raises ValueError when M is singular."""
    k, m = len(square), len(rhs[0]) if rhs else 0
    augmented = [{**a, **{k + t: v for t, v in enumerate(r) if v}} for a, r in zip(square, rhs)]
    red = RowReduction(k, k + m, augmented)
    if red.pivot_cols != list(range(k)):
        raise ValueError("matrix is singular")
    return [[Fraction(r.get(k + t, 0), den) for t in range(m)] for den, r in red.echelon_rows()]


def _sparse_of(rows_data) -> tuple[list[dict], int]:
    """Sparse rows and column count of a dense matrix; zeros are dropped."""
    rows = [[as_fraction(x) for x in row] for row in rows_data]
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix rows")
    return [{j: v for j, v in enumerate(row) if v} for row in rows], ncols


def reduction_of(rows_data) -> RowReduction:
    """Reduction of a dense matrix given as a list of rows; zeros are dropped."""
    sparse, ncols = _sparse_of(rows_data)
    return RowReduction(len(sparse), ncols, sparse)


class SolveResult(NamedTuple):
    """Outcome of solving A x = b exactly."""

    solution: list[Fraction] | None
    kernel: list[list[Fraction]]
    certificate: list[Fraction] | None


def solve(rows_data, b) -> SolveResult:
    """Particular solution plus kernel basis, or an inconsistency certificate."""
    red = reduction_of(rows_data)
    x, cert = red.solve(b)
    if x is None:
        return SolveResult(None, [], cert)
    return SolveResult(x, red.kernel_basis(), None)


def invert_dense(rows_data) -> list[list[Fraction]]:
    """Inverse of a small square matrix, the right half of the reduced
    echelon form [I | A^-1] of [A | I]; raises ValueError if singular."""
    sparse, k = _sparse_of(rows_data)
    if len(sparse) != k:
        raise ValueError("only square matrices can be inverted")
    return _solve_square(sparse, [[int(i == j) for j in range(k)] for i in range(k)])
