"""Re-run the commands of the ROADMAP baseline table once, outside the workloads.

Usage: python3 bench/baseline.py

Each command runs as `python3 -m lsea.cli ...` in its own process (the last
row in process, as in the table); the script prints its wall time and peak
resident memory next to the figure ROADMAP.md gives.  The `^16` rows are
left out: the table records them as killed after more than 10 minutes at
3.3 GB and as 39 s to exit 2, which is longer than a benchmark step should
run and more memory than a shared machine should be asked for.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# (command after `python3`, ROADMAP figure)
ROWS = [
    (["-m", "lsea.cli", "-n", "2", "norm", "(l1+l2+r1+r2)^12"], "7.7 s, 85 MB RSS"),
    (["-m", "lsea.cli", "-n", "2", "solve", "derspace", "--wdeg", "4", "--into-i"], "0.83 s"),
    (["-m", "lsea.cli", "verify", "prop32", "--cases", "200"], "2.0 s"),
    (["-m", "lsea.cli", "verify", "lemma26", "--cases", "200"], "1.4 s"),
    (
        ["-c", "from lsea.solver import derivation_space; derivation_space(2, 6, into_I=True)"],
        "7.3 s (in process)",
    ),
]


def measure(args):
    """(exit code, wall seconds, peak RSS in MB) of one child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], env=env, cwd=ROOT, stdout=subprocess.DEVNULL
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def main() -> int:
    print("| command | ROADMAP | here | exit |")
    print("|---|---|---|---|")
    worst = 0
    for args, figure in ROWS:
        code, wall, rss = measure(args)
        worst = max(worst, code)
        shown = " ".join(args[2:]) if args[0] == "-m" else args[1]
        print(f"| `{shown}` | {figure} | {wall:.2f} s, {rss:.0f} MB RSS | {code} |")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
