"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import lsea


@pytest.fixture
def subprocess_env():
    """os.environ with the lsea sources under test first on PYTHONPATH, so a
    child `python -m lsea.cli` imports the same code as this process."""
    src = str(Path(lsea.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}
