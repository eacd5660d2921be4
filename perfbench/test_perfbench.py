"""The benchmark's own test: every workload at a tiny size, the traced
run's counts, and the contract between BENCHMARK.json and the output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_SECONDS = "0.2"


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", TINY_SECONDS, "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1
    return result


def _is_count(name: str) -> bool:
    return not name.endswith(("_s", ".s")) and name != "trace.overhead_frac"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    done = _run(workload, seed=3, trace=0)
    result = _result(done)
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert "fail_frac=" in done.stdout.splitlines()[-2]
    if workload != "syntax-passes":  # the known canon defect fails items there
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_fixed_seed(workload):
    first, second = (_result(_run(workload, seed=4, trace=1)) for _ in range(2))
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == names
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    counts = {k: v["value"] for k, v in first["metrics"].items() if _is_count(k)}
    again = {k: v["value"] for k, v in second["metrics"].items() if _is_count(k)}
    assert counts == again
    assert first["metrics"]["trace.spans"]["value"] > 0


def test_layer_map_names_only_reported_metrics():
    layers = json.loads((HERE / "layers.json").read_text())
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for row in layers["moves"]:
        assert set(row["layer"]) <= per_layer
        assert set(row["moves"]) <= end_to_end
        assert set(row["workloads"]) <= set(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
