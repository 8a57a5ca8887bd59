"""The traced benchmark run ends in a result.

`perfbench/run.py --trace 1` calls `groupnear.cli.main` in-process, where a
`SystemExit` from the CLI, a print after the result line or a NaN metric
would leave the run exiting 0 without a valid result.  Each workload here
runs for one second, traced, and its last stdout line must be a strict JSON
result that is correct and carries every per-layer metric that
BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in the result")


@pytest.mark.parametrize("workload", ["closed-form", "sl-eliminate", "census", "torus"])
def test_traced_run_ends_in_a_correct_result(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines, f"no output; stderr: {proc.stderr[-2000:]}"
    result = json.loads(lines[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True
    assert sorted(set(PER_LAYER) - set(result["metrics"])) == []
    assert result["metrics"]["cli.critical_ms"]["value"] is not None
