"""Randomized properties of the exact solver, the reference system JSON view
and a golden elimination corpus."""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import fraction_inverse

from lsea.linalg import (
    RowReduction,
    as_fraction,
    reduction_of,
    solve,
)


def rand_matrix(rng, rows, cols, density=0.6):
    return [
        [
            Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
            if rng.random() < density
            else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def matvec(a, x):
    return [sum((aij * xj for aij, xj in zip(row, x)), Fraction(0)) for row in a]


def test_solutions_and_kernels_are_exact():
    rng = random.Random(2718)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        a = rand_matrix(rng, rows, cols)
        x_true = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(cols)]
        b = matvec(a, x_true)
        res = solve(a, b)
        assert res.solution is not None
        assert matvec(a, res.solution) == b
        zero = [Fraction(0)] * rows
        for v in res.kernel:
            assert matvec(a, v) == zero
        red = reduction_of(a)
        assert len(res.kernel) == cols - red.rank


def test_certificates_witness_inconsistency():
    rng = random.Random(3141)
    found = 0
    for _ in range(200):
        rows, cols = rng.randint(2, 6), rng.randint(1, 4)
        a = rand_matrix(rng, rows, cols, density=0.5)
        b = [Fraction(rng.randint(-3, 3)) for _ in range(rows)]
        res = solve(a, b)
        if res.solution is not None:
            assert matvec(a, res.solution) == b
            continue
        found += 1
        y = res.certificate
        # y*A = 0 and y*b != 0
        for j in range(cols):
            assert sum(y[i] * a[i][j] for i in range(rows)) == 0
        assert sum(yi * bi for yi, bi in zip(y, b)) != 0
    assert found >= 10


def test_inverse_round_trip():
    # the test-side inverse that `affine_tuple` is checked against
    rng = random.Random(1618)
    done = 0
    while done < 20:
        k = rng.randint(1, 4)
        a = rand_matrix(rng, k, k, density=0.9)
        try:
            inv = fraction_inverse(a)
        except ValueError:
            continue
        done += 1
        for i in range(k):
            row = [
                sum(a[i][t] * inv[t][j] for t in range(k)) for j in range(k)
            ]
            assert row == [Fraction(1) if i == j else Fraction(0) for j in range(k)]


def test_dense_input_errors():
    with pytest.raises(ValueError, match="ragged matrix rows"):
        solve([[1, 2], [3]], [0, 0])
    with pytest.raises(ValueError, match="only square"):
        fraction_inverse([[1, 2]])
    with pytest.raises(ValueError, match="singular"):
        fraction_inverse([[1, 2], [2, 4]])


def test_floats_refused():
    # Fraction(0.1) would be the binary double, not 1/10
    with pytest.raises(TypeError, match="not an exact rational: 0.5"):
        solve([[1, 0.5]], [Fraction(1, 10)])
    with pytest.raises(TypeError, match="not an exact rational: 0.1"):
        solve([[1, Fraction(1, 2)]], [0.1])
    with pytest.raises(TypeError):
        reduction_of([[1.0]])
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            as_fraction(bad)
    assert solve([[1, "1/2"]], ["1/10"]).solution == [Fraction(1, 10), 0]
    assert as_fraction(1) == 1 and as_fraction("-2/4") == Fraction(-1, 2)


def test_matrix_json_shape(system_json):
    # the dense view of a reference residual system (conftest)
    data = system_json([{0: Fraction(1, 2)}, {0: Fraction(3), 1: Fraction(-2, 3)}], 2)
    assert data == {
        "rows": 2,
        "cols": 2,
        "entries": [["1/2", "0"], ["3", "-2/3"]],
    }


# -- golden elimination corpus ----------------------------------------------------
#
# data/golden_rref.json holds sparse systems (seeded random ones: integer and
# rational, rank-deficient, up to 60x40; plus the stacked ad_{l_i} system of
# U_2 at degree 4 and the derivation-space system of U_2 at degree 3, both
# from the reference builders in conftest) with two
# right-hand sides each, and the SHA-256 of what the elimination gives: pivot
# and free columns, the kernel basis, and solve(b) for a consistent and a
# random (mostly inconsistent) b, certificate included.  The digests were
# recorded from the elimination that kept a dense row transform, so they pin
# pivots, kernels and certificates byte for byte.

GOLDEN_RREF = Path(__file__).parent / "data" / "golden_rref.json"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _strs(vec):
    return None if vec is None else [str(x) for x in vec]


def system_entries(sparse_rows):
    """Sparse rows as [[col, "value"], ...] lists in column order."""
    return [[[j, str(row[j])] for j in sorted(row)] for row in sparse_rows]


def elimination_digests(red, rhs: dict) -> dict:
    out = {
        "pivot_cols": _digest(red.pivot_cols),
        "free_cols": _digest(red.free_cols),
        "kernel_basis": _digest([_strs(v) for v in red.kernel_basis()]),
    }
    for name, b in rhs.items():
        x, cert = red.solve(b)
        out[f"solve_{name}"] = _digest([_strs(x), _strs(cert)])
    return out


def _golden_systems():
    return json.loads(GOLDEN_RREF.read_text())["systems"]


def _built_system(name, ad_stack, residual_system):
    """Sparse rows of a reference residual system (conftest)."""
    if name == "ad_stack(2,4)":
        return ad_stack(2, 4)[2]
    if name == "derivation_space(2,3)":
        return residual_system.derivation(2, 3)[1]
    raise KeyError(name)


@pytest.mark.parametrize("system", _golden_systems(), ids=lambda s: s["name"])
def test_golden_elimination(system, ad_stack, residual_system):
    rows = [{j: Fraction(v) for j, v in row} for row in system["entries"]]
    if not system["name"].startswith("random"):
        built = _built_system(system["name"], ad_stack, residual_system)
        assert system_entries(built) == system["entries"]
    red = RowReduction(system["rows"], system["cols"], rows)
    rhs = {name: [Fraction(v) for v in b] for name, b in system["rhs"].items()}
    assert elimination_digests(red, rhs) == system["digests"]
