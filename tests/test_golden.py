"""Replay of committed corpora of CLI invocations.

Each entry holds an argv, its exit code and the SHA-256 of its stdout.

- data/golden_products.json: `norm` / `mul` / `comm`, recorded from the
  Fraction-coefficient product kernel that preceded the integer-numerator
  one.  It covers n = 1..3, integer, negative and mixed-denominator
  coefficients, products that cancel to 0, powers up to (l1+l2+r1+r2)^8 and
  --max-terms refusals.
- data/golden_cli.json: every other leaf subcommand, all 15 verify suites
  and the usage errors (missing -n, wrong map kind, bad weights, unknown
  suite, missing subcommand), recorded before the CLI moved to per-subparser
  handlers.  A `{data}` prefix in an argv stands for the data directory, so
  map-file fixtures resolve independently of the working directory.  Its
  last three entries, `(l1+r1)^128`, `(l1+l2+r1+r2)^12` and
  `(l1+l2+l3+r1+r2+r3)^7`, were recorded from the binary powering that
  preceded the right fold.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lsea.cli import main

DATA = Path(__file__).parent / "data"
CASES = [
    case
    for corpus in ("golden_products.json", "golden_cli.json")
    for case in json.loads((DATA / corpus).read_text())["cases"]
]


def _case_id(case):
    return "_".join(arg.replace(" ", "") for arg in case["argv"])


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden_output(case, capsys):
    code = main([arg.replace("{data}", str(DATA)) for arg in case["argv"]])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
