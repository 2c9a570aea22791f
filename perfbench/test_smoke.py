"""Smoke check of the benchmark: each workload at minimal size, untraced and
traced, must pass its digest check and report every metric with its unit;
a traced run passes only if its layer self times add up to the op time."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics the report prints beside the result line, per workload.
REPORTED = {
    "trend": {"iters_per_s": "1/s", "final_accuracy": "fraction", "coop_margin": "fraction"},
    "wide_pool": {"iters_per_s": "1/s", "final_accuracy": "fraction"},
    "noise_sweep": {"trials_per_s": "1/s", "coop_margin": "fraction"},
}
# The tracer's own figures, printed by every traced run.
TRACE_REPORTED = {"trace.op_s": "s/op", "trace.overhead": "ratio"}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    reported = {
        fields[1]: fields[3]
        for fields in (line.split() for line in lines if line.startswith("metric "))
    }
    return json.loads(lines[-1]), reported


def _units(result: dict) -> dict:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(REPORTED))
def test_workload_reports_every_metric(workload):
    assert workload in {w["name"] for w in SPEC["workloads"]}

    result, reported = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(result) == end_to_end
    assert reported.items() >= {**end_to_end, **REPORTED[workload]}.items()

    traced, reported = _run(workload, trace=1)
    assert traced["correct"] and traced["failed"] == 0
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _units(traced) == per_layer
    assert reported.items() >= {**per_layer, **TRACE_REPORTED}.items()
