"""Smoke test of the benchmark itself, every workload at toy size.

    python3 -m pytest perfbench

Checks the output contract of run.py: every metric that BENCHMARK.json
names is emitted with its unit, the seed commit's outputs pass every
check, a corrupted reference digest is counted as a failure, and a
directory without the program fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, *extra: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "toy", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=root)


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(workload, trace, kind):
    info, result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["failed_checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert info["fail_frac"] == 0.0
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _copy_benchmark(to: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", to)
    shutil.copytree(BENCH, to / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_reference_counts_as_failure(tmp_path):
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "perfbench" / "references.json"
    refs = json.loads(path.read_text())
    refs["toy"]["scale"]["neighbor_dist"] = "0" * 64
    path.write_text(json.dumps(refs))
    info, result = _result(_run("scale", 0, root=tmp_path))
    assert info["fail_frac"] > 0
    assert not result["correct"] and result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run("scale", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
