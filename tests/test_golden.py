"""Replay of a committed corpus of `norm` / `mul` / `comm` invocations.

Each entry of data/golden_products.json holds an argv, its exit code and the
SHA-256 of its stdout, recorded from the Fraction-coefficient product kernel
that preceded the integer-numerator one.  The corpus covers n = 1..3,
integer, negative and mixed-denominator coefficients, products that cancel to
0, powers up to (l1+l2+r1+r2)^8 and --max-terms refusals.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lsea.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "golden_products.json").read_text())[
    "cases"
]


def _case_id(case):
    return "_".join(arg.replace(" ", "") for arg in case["argv"])


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden_output(case, capsys):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
