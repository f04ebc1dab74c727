#!/usr/bin/env python3
"""Benchmark of the elastica toolkit.

    python3 perfbench/run.py --workload flow-battery --seed 0 --seconds 30 --trace 0

Run from the repository root.  One closed-loop caller in one process with
one numeric thread runs the workload's seeded operations for --seconds
seconds, checks every result, and prints each metric by name and unit.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the same operations run once untraced and
once under the per-layer tracer, and the metrics are the per-layer ones.
The exit code is 0 only when every operation passed its check.  See
perfbench/NOTES.md for the workloads and metrics.
"""

import os

# One numeric thread: set before numpy is imported here or in a probe.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
TAIL_BEYOND = 10   # samples beyond the reported tail percentile
WORKLOAD_NAMES = ("flow-battery", "analytic-zoo", "curve-queries")


def _load_program():
    """Import `elastica.cli` from this checkout's sources, never from
    elsewhere on the path."""
    if not (SRC / "elastica" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import elastica.cli
    if Path(elastica.__file__).resolve().parent != SRC / "elastica":
        sys.exit(f"perfbench: imported elastica from {elastica.__file__}, not {SRC}")


def _setup_probe(workload: str, seed: int) -> None:
    """Child process of `_measure_setup`: import, build the inputs, report."""
    t0 = time.perf_counter()
    _load_program()
    t1 = time.perf_counter()
    import workloads
    plan = workloads.build(workload, seed, HERE / "unused")
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "digest": plan.digest}),
          flush=True)


def _measure_setup(workload: str, seed: int) -> list:
    """Wall time from starting a fresh interpreter to having imported
    `elastica.cli` and built the workload's inputs, several times."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            sys.exit(f"perfbench: setup probe failed with exit code {proc.returncode}")
        probe = json.loads(line)
        probe["setup_s"] = elapsed
        probes.append(probe)
    return probes


class Loop:
    """Result of running a plan's operations back to back."""

    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.extras = {}
        self.failures = []
        self.wall_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _run_loop(plan, seconds=None, count=None, after_first=None) -> Loop:
    """Run operations in plan order until `count` have run or, at a unit
    boundary, `seconds` have passed."""
    loop = Loop()
    ops = plan.ops
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % plan.unit == 0 and time.perf_counter() - start >= seconds:
            break
        op = ops[i % len(ops)]
        t0 = time.perf_counter()
        try:
            extra = op.call()
        except Exception as exc:   # record and go on: failures are counted
            extra = None
            loop.failures.append(f"{op.kind} {op.params[:1]!r}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
        loop.latencies.append(time.perf_counter() - t0)
        loop.kinds.append(op.kind)
        for key, value in (extra or {}).items():
            loop.extras.setdefault(key, []).append(value)
        if i == 0 and after_first is not None:
            after_first()
        i += 1
    loop.wall_s = time.perf_counter() - start
    return loop


def _tail(latencies: list) -> tuple:
    """(latency, percentile, samples beyond it) at the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are fewer than
    2 * TAIL_BEYOND samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def _by_kind(loop: Loop) -> dict:
    groups = {}
    for kind, lat in zip(loop.kinds, loop.latencies):
        groups.setdefault(kind, []).append(lat)
    return {k: {"n": len(v), "p50_s": statistics.median(v)} for k, v in sorted(groups.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    probes = _measure_setup(args.workload, args.seed)
    _load_program()
    import tracer
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        plan = workloads.build(args.workload, args.seed, workdir)
        same_inputs = all(p["digest"] == plan.digest for p in probes)
        workloads.warm_up(args.workload, workdir)
        if args.trace:
            plain = _run_loop(plan, seconds=args.seconds / 2)
            with tracer.Tracer() as tr:
                first = {}
                traced = _run_loop(plan, count=plain.attempted,
                                   after_first=lambda: first.update(tr.snapshot()))
            runs = [plain, traced]
        else:
            runs = [_run_loop(plan, seconds=args.seconds)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "inputs_digest": plan.digest,
               "probe_digests_match": same_inputs, "environment": _environment(),
               "setup_probes": probes, "fail_ratio": failed / attempted,
               "failures": [f for r in runs for f in r.failures][:10]}
    if args.trace:
        metrics = tr.metrics()
        metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
        metrics["setup.inputs_s"] = (statistics.median(p["inputs_s"] for p in probes), "s")
        metrics["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s, "ratio")
        details.update(operations=attempted, untraced_wall_s=plain.wall_s,
                       traced_wall_s=traced.wall_s,
                       first_operation={"kind": plan.ops[0].kind, **first})
    else:
        loop = runs[0]
        tail, percentile, beyond = _tail(loop.latencies)
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "ops_per_s": ((loop.attempted - loop.failed) / loop.wall_s, "1/s"),
            "op_p50_s": (statistics.median(loop.latencies), "s"),
            "op_tail_s": (tail, "s"),
            "ok_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        details.update(samples=loop.attempted, timed_wall_s=loop.wall_s,
                       op_tail_percentile=percentile, op_tail_samples_beyond=beyond,
                       by_kind=_by_kind(loop),
                       sub_timings={k: {"n": len(v), "p50_s": statistics.median(v)}
                                    for k, v in loop.extras.items()})

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")
    print("details " + json.dumps(details, sort_keys=True))
    correct = failed == 0 and same_inputs
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
