"""The seeded suite runner itself: every suite passes, reports are stable."""

import subprocess
import sys

import pytest

from lsea.verify import SUITES, run_suite

EXPECTED_SUITES = {
    "lemma22",
    "cor23",
    "cor25",
    "lemma26",
    "lemma27",
    "lemma28",
    "lemma31",
    "prop32",
    "lemma33",
    "lemma41",
    "example41",
    "lemma44",
    "prop55",
    "equ5",
    "thm72pair",
}


def test_suite_inventory():
    assert set(SUITES) == EXPECTED_SUITES


@pytest.mark.parametrize("suite", sorted(EXPECTED_SUITES))
def test_every_suite_passes(suite):
    report = run_suite(suite, seed=42, cases=30)
    assert report.ok, report.failures or report.anomalies


def test_reports_are_deterministic():
    a = run_suite("cor25", seed=9, cases=40)
    b = run_suite("cor25", seed=9, cases=40)
    assert a.line() == b.line()
    assert a.failures == b.failures


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nope")
    with pytest.raises(ValueError):
        run_suite("cor25", cases=0)


def test_cross_process_determinism(subprocess_env):
    """Stdout bytes must not depend on hash seeds or process state."""
    cmd = [
        sys.executable,
        "-m",
        "lsea.cli",
        "-n",
        "2",
        "solve",
        "derspace",
        "--wdeg",
        "1",
        "--into-i",
    ]
    outs = set()
    for hashseed in ("1", "7"):
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            env={**subprocess_env, "PYTHONHASHSEED": hashseed},
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
