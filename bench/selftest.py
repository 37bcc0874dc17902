"""Self-tests of the benchmark itself.

Usage: python3 bench/selftest.py [--full]

Checks that op lists are a pure function of (workload, seed, part), that
BENCHMARK.json names every metric the runner prints with the same unit,
that a run records its provenance, and that the tracer rebinds every module
attribute of a wrapped function.  With --full it also runs each workload
once, untraced and traced, and checks the printed result against
BENCHMARK.json.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def test_oplists() -> None:
    for workload in workloads.WORKLOADS:
        lists = [workloads.make_oplist(workload, 7, part) for part in range(run.PARTS)]
        again = [workloads.make_oplist(workload, 7, part) for part in range(run.PARTS)]
        check(
            all(workloads.oplist_bytes(a) == workloads.oplist_bytes(b) for a, b in zip(lists, again)),
            f"{workload}: the same seed gives byte-identical op lists",
        )
        other = workloads.make_oplist(workload, 8, 0)
        check(
            [op["argv"] for op in other["ops"]] != [op["argv"] for op in lists[0]["ops"]]
            or other["files"] != lists[0]["files"],
            f"{workload}: a different seed gives different inputs",
        )
        check(
            len({workloads.oplist_bytes(o) for o in lists}) == run.PARTS,
            f"{workload}: the op lists of one run differ from each other",
        )
        check(
            all(len(o["ops"]) >= 100 for o in lists),
            f"{workload}: every op list has at least 100 ops",
        )


def test_metric_table() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    check(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
        "BENCHMARK.json end_to_end matches the runner's names and units",
    )
    check(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER,
        "BENCHMARK.json per_layer matches the runner's names and units",
    )
    check(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json lists the runner's workloads",
    )


def test_provenance() -> None:
    prov = run.provenance(5)
    check(
        {"git_sha", "src_sha256", "python", "nproc", "loadavg_at_start", "seed"} <= prov.keys()
        and prov["seed"] == 5,
        "provenance records git SHA, source digest, Python, nproc, load average and seed",
    )


def test_tracer_rebinds() -> None:
    import importlib

    originals = []
    for targets in spans.LAYERS.values():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            originals.append(owner.__dict__[attr])
    spans.Tracer().install()
    leftover = [
        f"{name}.{key}"
        for name in spans.MODULES
        for key, val in vars(importlib.import_module(name)).items()
        if any(val is fn for fn in originals)
    ]
    check(not leftover, f"the tracer rebinds every module attribute ({leftover or 'none left'})")


def test_full_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in workloads.WORKLOADS:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(
                proc.returncode == 0 and result["correct"] and result["failed"] == 0
                and {k: v["unit"] for k, v in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in table},
                f"{workload} --trace {trace}: passes and prints every metric with its unit",
            )


def main() -> int:
    test_oplists()
    test_metric_table()
    test_provenance()
    test_tracer_rebinds()
    if "--full" in sys.argv[1:]:
        test_full_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
