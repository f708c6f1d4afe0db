"""cubeperc benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload scale --seed 0 --seconds 44 --trace 0

Run from the root of a checkout; cubeperc is imported from its src/.
The run repeats the workload until the next repetition would overrun
--seconds (at least once), times fresh processes' set-up between the
repetitions, checks every repetition's outputs, and
prints as its last line one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1).  The line before it
carries the environment stamp, the failed checks and the output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
REFERENCES = BENCH_DIR / "references.json"
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

try:
    import cubeperc
except ImportError as exc:
    sys.exit(f"cannot import cubeperc from {SRC}: {exc}")
if Path(cubeperc.__file__).resolve().parent.parent != SRC:
    sys.exit(f"cubeperc was imported from {cubeperc.__file__}, not from {SRC}")

import numpy
import scipy
from cubeperc import metrics

import tracing
import workloads

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
SETUP_PROBES = 12


def environment() -> dict:
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gib": round(pages / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # metrics._numba switches the map scan and the union-find kernels
        "numba": metrics._numba is not None,
    }


def setup_probe(args) -> float:
    """Time from the start of a fresh process until its imports are done
    and its inputs are ready."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as probe:
        ready = probe.stdout.readline()
        elapsed = time.perf_counter() - t0
        probe.stdout.read()
    if probe.returncode != 0 or ready != "ready\n":
        raise RuntimeError(f"setup probe failed with exit code {probe.returncode}")
    return elapsed


def run_repetition(workload, plan, tracer):
    """One timed repetition: its result, wall time and user + sys CPU."""
    w0, c0 = time.perf_counter(), time.process_time()
    if tracer is None:
        result = workload.run(plan)
    else:
        with tracer:
            result = workload.run(plan)
    return result, time.perf_counter() - w0, time.process_time() - c0


def reference_checks(outputs: dict, refs: dict) -> list[workloads.Check]:
    return [(f"{key} matches the reference", refs.get(key) == value)
            for key, value in outputs.items()]


def benchmark(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    toy = args.size == "toy"
    plan = workload.plan(args.seed, toy)
    refs = json.loads(REFERENCES.read_text())[args.size].get(args.workload, {})
    span_cost = tracing.span_cost() if args.trace else 0.0

    checks: list[workloads.Check] = []
    walls, cpus, layer_runs = [], [], []
    first = None
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    setup = [setup_probe(args)]
    k = 0
    while True:
        tracer = tracing.Tracer() if args.trace else None
        start = time.perf_counter()
        result, wall, cpu = run_repetition(workload, plan, tracer)
        if first is None:
            # later repetitions can only add allocator fragmentation to the peak
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks += workload.check(plan, result)
        if first is None:
            first = result.outputs
            if args.seed == 0:
                checks += reference_checks(result.outputs, refs)
        else:
            checks.append((f"repetition {k} repeats repetition 0", result.outputs == first))
        walls.append(wall)
        cpus.append(cpu)
        if tracer is not None:
            layer_runs.append(tracing.layer_metrics(tracer.totals(), wall, tracer.overhead(span_cost)))
        k += 1
        last = time.perf_counter() - start
        # the set-up probes are spread over the run in proportion to the
        # time gone, so that their median averages over the machine's
        # drift as the repetitions' median does
        while len(setup) < SETUP_PROBES * min(1.0, (time.perf_counter() - t_start) / args.seconds):
            setup.append(setup_probe(args))
        probes_left = (SETUP_PROBES - len(setup)) * statistics.median(setup)
        if time.perf_counter() + last + probes_left > deadline:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args))

    failed = [label for label, ok in checks if not ok]
    if args.trace:
        units = tracing.metric_units()
        values = {name: statistics.median(run[name] for run in layer_runs) for name in units}
    else:
        units = END_TO_END
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mib": peak_rss_mib,
            "setup_s": statistics.median(setup),
        }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "repetitions": k, "walls": [round(w, 4) for w in walls],
        "setup_probes": [round(t, 4) for t in setup],
        "fail_frac": len(failed) / len(checks), "failed_checks": failed[:20],
        "outputs": first, "env": environment(),
    }))
    for label in failed:
        print(f"FAILED: {label}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        workloads.WORKLOADS[args.workload].plan(args.seed, args.size == "toy")
        print("ready", flush=True)
        return 0
    print(json.dumps(benchmark(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
