"""Shared fixtures, and the residual systems kept as test references.

`lsea.solver` finds ad-preimages, Lemma 2.7 solutions and derivation spaces
in closed form or from explicit spanning families.  The linear systems an
elimination would solve instead are assembled here, from the straightening
constants, so that tests can check the closed forms against them.
"""

import functools
import itertools
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import lsea
from lsea import solver
from lsea.algebra import BasisWord, DomainError, _signed_products, exact_str
from lsea.maps import check_derivation, relation_words, relations


@pytest.fixture
def subprocess_env():
    """os.environ with the lsea sources under test first on PYTHONPATH, so a
    child `python -m lsea.cli` imports the same code as this process."""
    src = str(Path(lsea.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


@pytest.fixture
def run_lsea(subprocess_env, tmp_path):
    """run(argv, files, env, cap, timeout): `python -m lsea.cli *argv` in a
    child, the one way tests start the command.  `files` (name -> text, or
    bytes written as they are) are written to tmp_path first, `{data}` and `{tmp}` in argv stand for
    tests/data and tmp_path, `env` is added to the environment and `cap`
    bounds the address space in bytes.  Every run must end in exit code 0-3,
    with no traceback and, on a usage error (2), with nothing on stdout."""
    data = str(Path(__file__).parent / "data")

    def run(argv, files=None, env=None, cap=None, timeout=60):
        for name, text in (files or {}).items():
            if isinstance(text, bytes):
                (tmp_path / name).write_bytes(text)
            else:
                (tmp_path / name).write_text(text, encoding="utf-8")
        argv = [a.replace("{data}", data).replace("{tmp}", str(tmp_path)) for a in argv]
        env = {**subprocess_env, "PYTHONIOENCODING": "utf-8", **(env or {})}
        limit = functools.partial(resource.setrlimit, resource.RLIMIT_AS, (cap, cap))
        proc = subprocess.run(
            [sys.executable, "-m", "lsea.cli", *argv], capture_output=True,
            encoding="utf-8", env=env, preexec_fn=limit if cap else None, timeout=timeout,
        )
        assert proc.returncode in (0, 1, 2, 3), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        assert proc.returncode != 2 or proc.stdout == "", (argv, proc.stdout)
        return proc

    return run


def rand_word(rng, n: int, length: int) -> list:
    """A random letter sequence [(kind, index), ...] for `normal_form_oracle`."""
    return [(rng.choice("lr"), rng.randint(1, n)) for _ in range(length)]


def fraction_inverse(a) -> list:
    """The inverse of a square matrix by Gauss-Jordan elimination on
    [A | I] in Fractions, a reference apart from `lsea.linalg`; raises
    ValueError when A is singular or not square."""
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError("only square matrices can be inverted")
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
            for i, row in enumerate(a)]
    for col in range(k):
        piv = next((i for i in range(col, k) if rows[i][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for i in range(k):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [row[k:] for row in rows]


# -- reference assembly of residual systems ---------------------------------------


def violated_residuals(d) -> dict:
    """(kind, i, j) -> residual for each relation instance that the map d
    violates, read off the violations of `check_derivation`."""
    return {(kind, i, j): res for kind, i, j, res in check_derivation(d)[1]}


def derivation_residual_terms(n: int, kind: str, i: int, j: int) -> dict:
    """D applied to relation instance (kind, i, j), grouped by image slot.

    Each word a b gives D(a) b + a D(b).  The table maps a slot to its
    products (sign, left, right): one factor is None, standing for D of the
    generator in that slot, and the other is a generator slot.  The keys are
    l_i, l_j for "s1" and r_i, l_j, r_j for "s2".
    """
    table: dict[int, list] = {}
    for sign, a, b in relation_words(n, kind, i, j):
        table.setdefault(a, []).append((sign, None, b))
        table.setdefault(b, []).append((sign, a, None))
    return table


def _positions(words) -> dict:
    """Word -> position in a slice, the tuple `graded_slice` returns."""
    return {w: k for k, w in enumerate(words)}


def _position(w, positions) -> int:
    pos = positions.get(w)
    if pos is None:
        raise DomainError(f"term {w} is not in the target slice (inhomogeneous input?)")
    return pos


def _generator_word(n: int, slot: int) -> BasisWord:
    """Basis word of the generator in `slot` (l_1..l_n, then r_1..r_n, from 0)."""
    if slot < n:
        return BasisWord(tuple(int(k == slot) for k in range(n)), ())
    return BasisWord((0,) * n, (slot - n + 1,))


def _assemble(n, rows, row_base, target, col_base, source, products) -> None:
    """Write into `rows` the integer matrix of w -> sum(sign * left * right).

    `products` holds (sign, left, right) in the form of the residual table in
    `lsea.maps`: one factor is None, standing for the unit basis word w of
    the slice `source` of U_n, and the other a generator slot, read here as
    its basis word.  The image of the k-th word fills column col_base + k of
    rows row_base + position in `target`, a `_positions` map.  The
    generators left of w add up to one int combination a, those right of
    it to one combination b, and each image a w + w b is one
    `_signed_products` map, charged to the term budget as `mul` would
    charge it.
    """
    a = [(_generator_word(n, x), sign) for sign, x, _ in products if x is not None]
    b = [(_generator_word(n, x), sign) for sign, _, x in products if x is not None]
    for col, w in enumerate(source, col_base):
        unit = ((w, 1),)
        image = _signed_products(((1, a, unit), (1, unit, b)))
        for key, c in image.items():
            rows[row_base + _position(key, target)][col] = c


def _ad_stack(n, t):
    """(unknown slice, image slice, sparse rows) of the stacked system
    ad_{l_i}(g) = u_i: g runs over the degree-(t-1) part of I_n and block i
    of the rows over the degree-t part.  `ad_preimage` solves it in closed
    form."""
    unknown = solver.graded_slice(n, t - 1, restrict_to_I=True)
    image = solver.graded_slice(n, t, restrict_to_I=True)
    rows = [{} for _ in range(n * len(image))]
    for i in range(n):
        commutator_li = ((1, i, None), (-1, None, i))
        _assemble(n, rows, i * len(image), _positions(image), 0, unknown, commutator_li)
    return unknown, image, rows


def _lemma27_system(n, i, d):
    """(unknown slice, sparse rows) of -ad_{l_i}(g) - r_i g - g r_i = 0 for g
    in the degree-d part of I_n, one row per word of degree d + 1 in I_n."""
    unknown = solver.graded_slice(n, d, restrict_to_I=True)
    target = solver.graded_slice(n, d + 1, restrict_to_I=True)
    li, ri = i - 1, n + i - 1
    condition = ((-1, li, None), (1, None, li), (-1, ri, None), (-1, None, ri))
    rows = [{} for _ in range(len(target))]
    _assemble(n, rows, 0, _positions(target), 0, unknown, condition)
    return unknown, rows


def _derivation_system(n, m, into_I=False, weights=None):
    """(columns, sparse rows) of the relation residuals of a w-homogeneous
    derivation of w-degree m.  The unknowns are the images of the 2n
    generators, each in the slice of w-degree m + w_i (optionally inside
    I_n); column k is the k-th (slot, basis word).  The rows are the
    residuals of `relations(n)` in order, each over its target slice, with
    each slot's products from `derivation_residual_terms`."""
    weights = tuple(weights) if weights is not None else (1,) * n
    slot_slices = [solver.weighted_slice(n, m + w, weights, into_I) for w in weights] * 2
    offsets = [0, *itertools.accumulate(map(len, slot_slices))]
    rels = list(relations(n))
    targets = [
        solver.weighted_slice(n, m + weights[i - 1] + weights[j - 1], weights)
        for _, i, j in rels
    ]
    row_offsets = [0, *itertools.accumulate(map(len, targets))]
    rows = [{} for _ in range(row_offsets[-1])]
    for rel, base, target in zip(rels, row_offsets, targets):
        positions = _positions(target)
        for slot, products in derivation_residual_terms(n, *rel).items():
            _assemble(n, rows, base, positions, offsets[slot], slot_slices[slot], products)
    columns = [(slot, w) for slot, s in enumerate(slot_slices) for w in s]
    return columns, rows


@pytest.fixture
def ad_stack():
    """The stacked ad_{l_i} system builder `_ad_stack`."""
    return _ad_stack


@pytest.fixture
def residual_system():
    """Builders of the Lemma 2.7 system (`lemma27(n, i, d)`) and of the
    derivation-space system (`derivation(n, m, into_I=False, weights=None)`)."""
    return SimpleNamespace(lemma27=_lemma27_system, derivation=_derivation_system)


@pytest.fixture
def system_json():
    """Dense JSON view of a sparse system, entries as exact strings: the
    shape the Lemma 2.7 anomaly payload once carried."""

    def view(sparse_rows, cols):
        return {
            "rows": len(sparse_rows),
            "cols": cols,
            "entries": [
                [exact_str(row.get(j, 0)) for j in range(cols)] for row in sparse_rows
            ],
        }

    return view
