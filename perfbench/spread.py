"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads scale kernels --seeds 10 --out runs.json

For every workload and metric this prints the median, the quartiles
(statistics.quantiles with n=4), the sample count and the spread, the
distance between the quartiles as a share of the median.  With
--trace 1 it summarises the per-layer metrics instead.  --out keeps the
summary, the environment stamp and every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          cwd=BENCH_DIR.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(runs: list[dict], units: dict) -> dict:
    out = {}
    for name, first in units.items():
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": first["unit"], "median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.seeds):
            info, result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({
                "seed": seed, "repetitions": info["repetitions"], "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            })
            status = "ok" if result["correct"] else f"FAILED {info['failed_checks']}"
            print(f"{workload} seed {seed}: {info['repetitions']} repetitions, {status}", flush=True)
        summary = summarise([r["metrics"] for r in runs], result["metrics"])
        report[workload] = {"env": info["env"], "summary": summary, "runs": runs}
        for name, s in summary.items():
            print(f"  {name:52s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}  spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
