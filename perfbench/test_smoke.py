"""Smoke self-test of the benchmark: every workload, tiny inputs.

Runs the benchmark command end to end, untraced and traced, and checks
the shape of the result line.  Run it from the repository root:

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402

WORKLOADS = ("sensor_stream", "gateway_bulk", "fleet_cold", "uc1_offline")


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-3000:] + out.stdout[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_reports_every_metric(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_program_source() -> None:
    """A directory holding only the benchmark files must fail fast."""
    bare = ROOT / ".perfbench-state" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for path in (ROOT / "perfbench").glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "uc1_offline", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run's state is still there
    assert out.returncode != 0
    assert out.stdout == ""
