"""The lsea benchmark: seeded workloads timed end to end, and traced by layer.

Usage:
    python3 bench/run.py --workload {expand,derspace,verify} --seed N \
        --seconds S --trace {0,1} [--write-expected]

A run is a closed loop with one caller and no threads.  The seed makes
PARTS op lists of the workload.  A pass launches a fresh interpreter
(bench/worker.py), which imports `lsea.cli` and then runs one op list, one
op at a time, each op an in-process `lsea.cli.main(argv)` call with stdout
captured.  Every pass therefore starts with cold caches, as every `lsea`
invocation does.  A cycle is one pass over each op list; the run repeats
cycles until S seconds have been measured.  Several op lists per run keep
the result steady across seeds, whose inputs differ in cost.

With --trace 0 the run reports the end-to-end metrics (END_TO_END); with
--trace 1 it pairs each untraced pass with a traced one, adds one
tracemalloc pass, and reports the per-layer metrics (PER_LAYER).  The last
line of stdout is one JSON object {correct, attempted, failed, metrics};
the lines before it are a readable summary.  An op fails when its exit code
or its stdout differs from what is expected: at the committed seed every
op's exit code and stdout digest are stored in bench/expected.json, and at
every seed the outputs go through the independent checks of bench/checks.py
(the slow ones on the first op list only) and must repeat in every pass.
The run exits 1 when any op failed and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
EXPECTED = os.path.join(BENCH, "expected.json")
COMMITTED_SEED = 0
# Op and pass times are reported at the machine speed where worker.probe()
# takes REFERENCE_PROBE_S: each op's raw time is scaled by REFERENCE_PROBE_S
# over the mean time of the probes sampled (every 20 ms, from a timer signal)
# during the op and within PROBE_WINDOW_S of it.  On a shared machine the
# speed of one core drifts by up to 1.5x over tens of seconds; on repeats of
# one op list this cuts the pass-to-pass spread of wall time and of op
# percentiles from 15-35% to 2-7%.  Set-up time is scaled by probes taken
# right after the import, in the same process.
REFERENCE_PROBE_S = 100e-6
PROBE_WINDOW_S = 0.1
PARTS = 4
TRACE_PARTS = 2  # a traced run covers the first op lists only, to stay short
SETUP_SAMPLES = 9
PASS_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

LAYERS = [
    "cli",
    "parser.parse",
    "parser.format",
    "algebra.mul",
    "maps.apply",
    "maps.check",
    "maps.build",
    "solver",
    "linalg.rref",
    "linalg.solve",
    "verify",
]

PER_LAYER = (
    [("cli.calls", "count"), ("cli.self_s", "s")]
    + [("parser.parse.calls", "count"), ("parser.parse.self_s", "s")]
    + [("parser.format.calls", "count"), ("parser.format.self_s", "s")]
    + [("parser.format.bytes", "B")]
    + [("algebra.mul.calls", "count"), ("algebra.mul.self_s", "s")]
    + [(f"algebra.mul.{k}", "count") for k in ("term_pairs", "out_terms", "max_out_terms")]
    + [("algebra.straighten.hits", "count"), ("algebra.straighten.misses", "count")]
    + [("algebra.straighten.hit_ratio", "ratio"), ("algebra.straighten.entries", "count")]
    + [("maps.apply.calls", "count"), ("maps.apply.self_s", "s")]
    + [("maps.check.calls", "count"), ("maps.check.self_s", "s")]
    + [("maps.build.calls", "count"), ("maps.build.self_s", "s")]
    + [("solver.calls", "count"), ("solver.self_s", "s")]
    + [("solver.unknowns", "count"), ("solver.kernel_dim", "count")]
    + [("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s")]
    + [(f"linalg.rref.{k}", "count") for k in ("rows", "cols", "nnz_in", "rank")]
    + [("linalg.solve.calls", "count"), ("linalg.solve.self_s", "s")]
    + [("verify.cases", "count"), ("verify.self_s", "s")]
    + [(f"share.{layer}", "ratio") for layer in LAYERS + ["harness"]]
    + [("trace.overhead_ratio", "ratio"), ("trace.wall_s", "s")]
    + [("mem.op_peak_mb.p50", "MB"), ("mem.op_peak_mb.max", "MB")]
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _git_sha():
    """HEAD of a git checkout at ROOT, read from .git without leaving ROOT."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    src_digest = hashlib.sha256()
    lsea_dir = os.path.join(SRC, "lsea")
    for name in sorted(os.listdir(lsea_dir)):
        if name.endswith(".py"):
            with open(os.path.join(lsea_dir, name), "rb") as fh:
                src_digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src_digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
    }


class Runner:
    """Launches worker passes over the run's op lists in a private directory."""

    def __init__(self, workdir: str, oplists):
        self.oplists = oplists
        self.dirs = []
        for oplist in oplists:
            part_dir = os.path.join(workdir, f"part-{oplist['part']}")
            os.makedirs(part_dir)
            with open(os.path.join(part_dir, "oplist.json"), "w", encoding="utf-8") as fh:
                json.dump(oplist, fh)
            for name, data in oplist["files"].items():
                with open(os.path.join(part_dir, name), "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
            self.dirs.append(part_dir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.setup_samples: list[float] = []
        self.raw_setup_samples: list[float] = []

    def launch(self, mode: str, part: int = 0, keep_stdout: bool = False) -> dict:
        part_dir = self.dirs[part]
        out_path = os.path.join(part_dir, f"pass-{mode}.json")
        cmd = [
            sys.executable,
            WORKER,
            mode,
            os.path.join(part_dir, "oplist.json"),
            out_path,
            str(int(keep_stdout)),
        ]
        t0 = _clock()
        try:
            proc = subprocess.run(
                cmd,
                env=self.env,
                cwd=part_dir,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=PASS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} pass exceeded {PASS_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
            raise BenchError(f"{mode} pass failed: " + " | ".join(tail))
        with open(out_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(out_path)
        self.setup_samples.append(
            (result["ready"] - t0) * REFERENCE_PROBE_S / _mean(result["setup_probes"])
        )
        self.raw_setup_samples.append(result["ready"] - t0)
        result["part"] = part
        if "ops" in result:
            _scale_to_reference(result)
        return result

    def cycles(self, seconds: float, modes):
        """Whole cycles of passes, each mode per op list, until `seconds` pass.

        The first plain pass of each op list keeps stdout, for the checks.
        """
        passes = []
        start = _clock()
        while not passes or _clock() - start < seconds:
            for part in range(len(self.oplists)):
                for mode in modes:
                    keep = mode == "plain" and not any(p["part"] == part for p in passes)
                    passes.append(self.launch(mode, part, keep_stdout=keep))
        return passes


def _scale_to_reference(result) -> None:
    """Add each op's time at reference speed ("ref_s") and the pass totals."""
    times = [t for t, _ in result["probes"]]
    probes = [d for _, d in result["probes"]]
    for rec in result["ops"]:
        lo = bisect.bisect_left(times, rec["at"] - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, rec["at"] + rec["s"] + PROBE_WINDOW_S)
        rec["ref_s"] = rec["s"] * REFERENCE_PROBE_S / _mean(probes[lo:hi] or probes)
    result["wall_s"] = sum(rec["s"] for rec in result["ops"])
    result["ref_wall_s"] = sum(rec["ref_s"] for rec in result["ops"])


def _mean(values) -> float:
    return sum(values) / len(values)


def _per_part_median(passes, key) -> float:
    """Mean over op lists of the median over each list's passes."""
    parts = sorted({p["part"] for p in passes})
    return _mean([statistics.median([p[key] for p in passes if p["part"] == k]) for k in parts])


def measure_end_to_end(runner: Runner, seconds: float):
    passes = runner.cycles(seconds, ["plain"])
    while len(runner.setup_samples) < SETUP_SAMPLES:
        runner.launch("setup")
    latencies = [rec["ref_s"] for p in passes for rec in p["ops"]]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    metrics = {
        "setup_s": statistics.median(runner.setup_samples),
        "wall_s": _per_part_median(passes, "ref_wall_s"),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": _per_part_median(passes, "maxrss_kb") / 1024,
    }
    notes = {
        "passes": len(passes),
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(1 for s in latencies if s > p90),
        "setup_samples": len(runner.setup_samples),
        "raw_setup_s": round(statistics.median(runner.raw_setup_samples), 4),
        "raw_wall_s": round(_per_part_median(passes, "wall_s"), 4),
    }
    return passes, metrics, notes


def measure_per_layer(runner: Runner, seconds: float):
    import spans

    passes = runner.cycles(seconds, ["plain", "spans"])
    alloc = runner.launch("tracemalloc", part=0)
    plain = [p for p in passes if "spans" not in p]
    traced = [p for p in passes if "spans" in p]
    per_cycle = len(runner.oplists) / len(traced)

    totals: dict[str, float] = {}
    max_out_terms = 0
    for p in traced:
        for key, value in spans.derive(p["spans"]).items():
            if key == "algebra.mul.max_out_terms":
                max_out_terms = max(max_out_terms, value)
            else:
                totals[key] = totals.get(key, 0) + value
    metrics = {
        key: (value * per_cycle if key.endswith("_s") else round(value * per_cycle))
        for key, value in totals.items()
    }
    metrics["algebra.mul.max_out_terms"] = max_out_terms

    traced_wall = sum(p["wall_s"] for p in traced)
    metrics["share.harness"] = (traced_wall - totals["in_cli_s"]) / traced_wall
    for layer in LAYERS:
        metrics[f"share.{layer}"] = totals[f"{layer}.self_s"] / traced_wall
    traced_ref_wall = sum(p["ref_wall_s"] for p in traced)
    metrics["trace.wall_s"] = traced_ref_wall / len(traced)
    metrics["trace.overhead_ratio"] = traced_ref_wall / sum(p["ref_wall_s"] for p in plain)

    caches = [p["caches"] for p in traced]
    if any(c is None for c in caches):
        for key in ("hits", "misses", "hit_ratio", "entries"):
            metrics[f"algebra.straighten.{key}"] = None
    else:
        for key in ("hits", "misses", "entries"):
            metrics[f"algebra.straighten.{key}"] = round(
                sum(c[key] for c in caches) * per_cycle
            )
        lookups = metrics["algebra.straighten.hits"] + metrics["algebra.straighten.misses"]
        metrics["algebra.straighten.hit_ratio"] = (
            metrics["algebra.straighten.hits"] / lookups if lookups else 0.0
        )

    peaks = [rec["alloc_peak_b"] / 2**20 for rec in alloc["ops"]]
    metrics["mem.op_peak_mb.p50"] = statistics.median(peaks)
    metrics["mem.op_peak_mb.max"] = max(peaks)
    notes = {"plain_passes": len(plain), "traced_passes": len(traced)}
    return passes + [alloc], metrics, notes


def _oplist_sha256(oplist) -> str:
    import workloads

    return _sha256(workloads.oplist_bytes(oplist))


def load_expected(workload: str):
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)


def write_expected(workload: str, oplists, passes) -> None:
    data = {"seed": COMMITTED_SEED, "workloads": {}}
    if os.path.isfile(EXPECTED):
        with open(EXPECTED, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data["workloads"][workload] = [
        {
            "oplist_sha256": _oplist_sha256(oplist),
            "ops": [[rec["code"], rec["sha256"]] for rec in _first_pass(passes, k)["ops"]],
        }
        for k, oplist in enumerate(oplists)
    ]
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _first_pass(passes, part):
    return next(p for p in passes if p["part"] == part and "stdout" in p["ops"][0])


def grade(runner: Runner, passes, expected):
    """(failed op samples, {(part, op id): reason}) over every pass."""
    import checks

    bad: dict[tuple[int, int], str] = {}
    for k, oplist in enumerate(runner.oplists):
        ops = oplist["ops"]
        first = _first_pass(passes, k)["ops"]
        want = None
        if expected is not None:
            want = expected[k]
            if want["oplist_sha256"] != _oplist_sha256(oplist):
                bad.update({(k, op["id"]): "op list differs from the committed one" for op in ops})
                continue
        for op, rec in zip(ops, first):
            if rec["code"] != op["exit"]:
                why = f"exit {rec['code']!r}, expected {op['exit']}"
            elif want is not None and [rec["code"], rec["sha256"]] != want["ops"][op["id"]]:
                why = "stdout or exit code differs from the committed digest"
            else:
                why = checks.check_op(op, rec["stdout"], runner.dirs[k], deep=k == 0)
            if why is not None:
                bad[(k, op["id"])] = why
    failed = 0
    for p in passes:
        first = _first_pass(passes, p["part"])["ops"]
        for op_id, (rec, ref) in enumerate(zip(p["ops"], first)):
            key = (p["part"], op_id)
            if (rec["code"], rec["sha256"]) != (ref["code"], ref["sha256"]):
                bad.setdefault(key, "output differs between passes")
            failed += key in bad
    return failed, bad


def dominant_layer(metrics) -> tuple[str, float]:
    shares = {k[len("share."):]: v for k, v in metrics.items() if k.startswith("share.")}
    layer = max(shares, key=shares.get)
    return layer, shares[layer]


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "lsea", "__init__.py")):
        raise BenchError(f"no lsea sources under {SRC}")
    if args.write_expected and args.seed != COMMITTED_SEED:
        raise BenchError(f"--write-expected records the committed seed {COMMITTED_SEED} only")
    expected = None
    if args.seed == COMMITTED_SEED and not args.write_expected:
        expected = load_expected(args.workload)
        if expected is None:
            raise BenchError(f"{EXPECTED} has no digests for {args.workload}")
    prov = provenance(args.seed)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        sys.path[:0] = [SRC]
        import workloads

        parts = TRACE_PARTS if args.trace else PARTS
        oplists = [workloads.make_oplist(args.workload, args.seed, k) for k in range(parts)]
        runner = Runner(workdir, oplists)
        runner.launch("setup")  # untimed: a checkout's first start may compile bytecode
        runner.setup_samples.clear()
        if args.trace:
            passes, metrics, notes = measure_per_layer(runner, args.seconds)
            table = PER_LAYER
        else:
            passes, metrics, notes = measure_end_to_end(runner, args.seconds)
            table = END_TO_END
        failed, bad = grade(runner, passes, expected)
        if args.write_expected and not bad:
            write_expected(args.workload, oplists, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = sum(len(p["ops"]) for p in passes)
    sizes = "/".join(str(len(o["ops"])) for o in oplists)
    print(
        f"workload {args.workload}  seed {args.seed}  op lists {len(oplists)} of {sizes} ops  "
        + "  ".join(f"{k} {v}" for k, v in notes.items())
    )
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, unit in table:
        value = metrics[name]
        print(f"  {name:32s} {'absent' if value is None else f'{value:.6g}'} {unit}")
    print(f"  {'fail_ratio':32s} {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    if args.trace:
        layer, share = dominant_layer(metrics)
        print(f"  dominant layer {layer} ({share:.1%} of traced time)")
    for (part, op_id), why in sorted(bad.items())[:10]:
        print(f"  FAILED op {part}/{op_id} {oplists[part]['ops'][op_id]['argv'][:6]}: {why}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            | ({"absent": True} if metrics[name] is None else {})
            for name, unit in table
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help=f"store exit codes and stdout digests of seed {COMMITTED_SEED} in {EXPECTED}",
    )
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
