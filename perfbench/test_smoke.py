"""Smoke test of the benchmark: every workload runs for a couple of ops,
untraced and traced, and prints every metric that BENCHMARK.json names, with
its unit, and no failed op."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert result["metrics"]["enob_after_min_bits"]["value"] >= 13.0


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "correct_m16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
