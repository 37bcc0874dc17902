"""Exact rational linear algebra: RREF, solving, kernels, certificates.

A system is a list of sparse rows, column->value dicts, because the operator
matrices arising from graded slices are mostly zeros; entries are exact
rationals.  Elimination is fraction-free: each row is scaled once to ints,
by the lcm of its denominators, and every step replaces a row by an int
combination of it and the pivot row, with its content divided out.  The
reduced rows are read off those int rows as numerators over their pivots
(`echelon_rows`, the row space a derivation space is read from), and
kernel bases from the same rows.  Right-hand sides and certificates replay
a rational operation log that is derived from the int log on first use, so
an elimination whose rows alone are wanted builds no Fraction.  Dense row
lists enter only through `reduction_of`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .algebra import _charge, _int_form, as_fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)
_INT = {int}


def _int_row(row: dict) -> tuple[dict, int]:
    """(mu * row, mu) with mu the lcm of the denominators of the entries."""
    if set(map(type, row.values())) <= _INT:
        return dict(row), 1
    return _int_form({j: as_fraction(v) for j, v in row.items()})


class RowReduction:
    """Reduced row echelon form of a sparse matrix, as a replayable operation log.

    Columns are eliminated left to right; a column's pivot is the unused row
    holding it with the fewest nonzeros, then the lowest index, so runs are
    deterministic.  A column -> rows index, kept through fill-in and
    cancellation, limits each step to the rows holding its column.

    Rows are kept as ints: row i of the rational elimination is the int row
    divided by a scale.  A step with pivot value pv turns a row w holding
    entry a into (pv/g) w - (a/g) prow, with g = gcd(pv, a) signed like pv,
    and divides out its content c; it is logged as (pivot row, pv,
    [(row, a, g * c), ...]).  Scaling keeps supports, so pivots are those of
    the rational elimination.  The longest row a step updates is charged to
    the term budget.
    """

    def __init__(self, rows: int, cols: int, sparse_rows):
        self.rows = rows
        self.cols = cols
        work, scales = [], []
        for r in sparse_rows:
            w, mu = _int_row(r)
            work.append(w)
            scales.append(mu)
        if len(work) != rows:
            raise ValueError("row count mismatch")
        holders = defaultdict(set)
        for i, row in enumerate(work):
            for j in row:
                holders[j].add(i)

        log = []
        pivot_of_col: dict[int, int] = {}
        free_holders: dict[int, list[int]] = {}
        unused = set(range(rows))
        for col in range(cols):
            holding = sorted(i for i in holders.pop(col, ()) if work[i][col])
            candidates = [i for i in holding if i in unused]
            if not candidates:
                # rows holding a free column keep it to the end, and no
                # later step moves it into another row
                free_holders[col] = holding
                continue
            piv = min(candidates, key=lambda i: (len(work[i]), i))
            unused.discard(piv)
            prow = work[piv]
            pv = prow[col]
            steps = []
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
                steps.append((i, a, g * c))
                if len(wi) > longest:
                    longest = len(wi)
            _charge(longest)
            log.append((piv, pv, steps))
            pivot_of_col[col] = piv

        self._work = work
        self._scales = scales
        self._int_log = log
        self._free_holders = free_holders
        self.pivot_of_col = pivot_of_col
        self.pivot_cols = sorted(pivot_of_col)
        self.free_cols = list(free_holders)
        self.rank = len(self.pivot_cols)
        self._nonpivot_rows = sorted(unused)

    @cached_property
    def _log(self) -> list:
        """The int log as rational row operations (pivot row, 1/pivot,
        [(row, factor), ...]).  Row i of the rational elimination is the int
        row times den/num, with mu[i] = (num, den) kept in lowest terms."""
        mu = [(m, 1) for m in self._scales]
        log = []
        for piv, pv, steps in self._int_log:
            num, den = mu[piv]
            inv = Fraction(num, den * pv)
            mu[piv] = (pv, 1)
            factors = []
            for i, a, s in steps:
                num, den = mu[i]
                factors.append((i, Fraction(a * den, num)))
                num, den = num * pv, den * s
                g = gcd(num, den)
                mu[i] = (num // g, den // g)
            log.append((piv, inv, factors))
        return log

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
        work = self._work
        col_of_row = {row: col for col, row in self.pivot_of_col.items()}
        basis = []
        for f in self.free_cols:
            dense = [_ZERO] * self.cols
            dense[f] = _ONE
            for i in self._free_holders[f]:
                col = col_of_row[i]
                dense[col] = Fraction(-work[i][f], work[i][col])
            basis.append(dense)
        return basis


def reduction_of(rows_data) -> RowReduction:
    """Reduction of a dense matrix given as a list of rows; zeros are dropped."""
    rows = [[as_fraction(x) for x in row] for row in rows_data]
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix rows")
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    return RowReduction(len(rows), ncols, sparse)


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
