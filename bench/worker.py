"""One pass of a workload in a fresh interpreter.

Usage: python3 worker.py MODE OPLIST OUT [KEEP_STDOUT]

MODE is `setup` (import and exit), `plain` (time every op), `spans`
(record layer spans around every op) or `tracemalloc` (record the
allocation peak of every op).  The worker takes the clock as soon as
`import lsea.cli` returns, so the parent can derive set-up time from its
own launch time; `lsea` must be importable (the parent sets PYTHONPATH).
Ops run with the working directory set to the op list's directory, where
the parent has written the input files.  Results go to OUT as JSON.

While ops run, a timer signal every PROBE_EVERY_S times `probe`, a fixed
small loop that does not touch `lsea`; the timestamped samples tell the
parent how fast the machine ran during each op (see run.py).
"""

import time

import lsea.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

PROBE_EVERY_S = 0.02
SETUP_PROBES = 30


def probe() -> float:
    """Seconds a fixed small loop of tuple, dict and Fraction work takes now."""
    t0 = time.perf_counter()
    acc = {}
    total = Fraction(0)
    for i in range(200):
        key = (i & 15, i & 3)
        acc[key] = acc.get(key, 0) + i
        if i % 25 == 0:
            total += Fraction(i, 7)
    return time.perf_counter() - t0


class SpeedProbe:
    """Times `probe` from a timer signal, evenly in wall time, while ops run."""

    def __init__(self):
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame):
        self.samples.append((time.perf_counter(), probe()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_op(argv):
    """(exit code or exception name, seconds, stdout) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lsea.cli.main(argv)
        except Exception as exc:  # a traceback is a failed op, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
    return code, time.perf_counter() - t0, out.getvalue()


def main() -> int:
    mode, oplist_path, out_path = sys.argv[1:4]
    keep_stdout = len(sys.argv) > 4 and sys.argv[4] == "1"
    # on the same core, right after the import, for scaling the set-up time
    result = {"ready": READY, "setup_probes": [probe() for _ in range(SETUP_PROBES)]}
    if mode != "setup":
        with open(oplist_path, "r", encoding="utf-8") as fh:
            ops = json.load(fh)["ops"]
        os.chdir(os.path.dirname(os.path.abspath(oplist_path)))
        tracer = None
        if mode == "spans":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        elif mode == "tracemalloc":
            import tracemalloc

            tracemalloc.start()
        records = []
        with SpeedProbe() as speed:
            for op in ops:
                if tracer is not None:
                    tracer.op_id = op["id"]
                if mode == "tracemalloc":
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                start = time.perf_counter()
                code, seconds, stdout = run_op(op["argv"])
                rec = {
                    "code": code,
                    "at": start,
                    "s": seconds,
                    "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                }
                if mode == "tracemalloc":
                    rec["alloc_peak_b"] = tracemalloc.get_traced_memory()[1] - base
                if keep_stdout:
                    rec["stdout"] = stdout
                records.append(rec)
        result["ops"] = records
        result["probes"] = speed.samples
        if tracer is not None:
            result["spans"] = tracer.spans
            result["caches"] = spans.cache_counts()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
