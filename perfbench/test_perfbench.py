"""Self-test of the benchmark on its fast S3 inputs.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["smoke_s3", "smoke_s3_exterior"]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run._load_library()
import harness  # noqa: E402


def run_cli(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", SMOKE)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(workload, trace, section):
    result = run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    if trace:
        assert result["metrics"]["trace.phase_coverage"]["value"] >= 0.95


def _run_in_process(workload: str) -> dict:
    args = argparse.Namespace(workload=workload, seed=5, seconds=0.0, trace=0)
    result, _ = run.run(args)
    return result


@pytest.mark.parametrize("workload", SMOKE)
@pytest.mark.parametrize("fault", ["corrupt", "raise"])
def test_bad_angle_counts_as_failed(monkeypatch, workload, fault):
    """One bad angle in the run is counted, and only that one."""
    name = "exterior_angle" if harness.WORKLOADS[workload].exterior else "interior_angle"
    real = getattr(harness.sa, name)
    calls = []

    def faulty(*args, **kwargs):
        report = real(*args, **kwargs)
        calls.append(report)
        if len(calls) == 1:  # only the first angle of the run goes bad
            if fault == "raise":
                raise harness.sa.NumericalError("injected fault")
            return dataclasses.replace(report, cos_value=report.cos_value + 1e-3)
        return report

    monkeypatch.setattr(harness.sa, name, faulty)
    result = _run_in_process(workload)
    assert result["failed"] == 1
    assert not result["correct"]
    assert 0 < result["failed"] / result["attempted"] < 1  # the fail ratio


def test_run_ends_when_every_angle_raises(monkeypatch):
    def broken(*args, **kwargs):
        raise harness.sa.InvariantError("injected fault")

    monkeypatch.setattr(harness.sa, "interior_angle", broken)
    result = _run_in_process("smoke_s3")
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["angle_ms_p50"]["value"] is None
    json.dumps(result, allow_nan=False)
