"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import lsea
from lsea import solver


@pytest.fixture
def subprocess_env():
    """os.environ with the lsea sources under test first on PYTHONPATH, so a
    child `python -m lsea.cli` imports the same code as this process."""
    src = str(Path(lsea.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def _ad_stack(n, t):
    """(unknown slice, image slice, sparse rows) of the stacked system
    ad_{l_i}(g) = u_i: g runs over the degree-(t-1) part of I_n and block i
    of the rows over the degree-t part.  `ad_preimage` solves it in closed
    form; this elimination input, assembled by `solver._assemble`, is kept
    as its reference."""
    unknown = solver.graded_slice(n, t - 1, restrict_to_I=True)
    image = solver.graded_slice(n, t, restrict_to_I=True)
    rows = [{} for _ in range(n * image.dim)]
    for i in range(n):
        commutator_li = ((1, i, None), (-1, None, i))
        solver._assemble(rows, i * image.dim, image, 0, unknown, commutator_li)
    return unknown, image, rows


@pytest.fixture
def ad_stack():
    """The stacked ad_{l_i} system builder `_ad_stack`."""
    return _ad_stack
