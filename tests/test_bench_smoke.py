"""The benchmark's plain and traced runs end in a complete, correct result.

`perfbench/run.py` exits 0 even when an op's output is wrong, and with
`--trace 1` it calls `groupnear.cli.main` in-process, where a `SystemExit`
from the CLI, a print after the result line or a NaN metric would leave the
run exiting 0 without a valid result.  Each workload here runs plain and
traced at the run length BENCHMARK.json declares (`run_seconds`), on seed 7.
The run must exit 0 and print exactly two lines, the details and the
result; the result must be strict JSON (no NaN or Infinity), correct, and
carry a finite number for every metric BENCHMARK.json declares for that
kind of run: `end_to_end` for a plain run, `per_layer` for a traced one.
A plain run must pass every op (`ok_share` 1.0), and a traced run must
have found every function it wraps (`missing` empty in the details).
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {trace: [m["name"] for m in SPEC[kind]] for trace, kind in ((0, "end_to_end"), (1, "per_layer"))}


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_ends_in_a_complete_correct_result(workload, trace):
    argv = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        str(SPEC["run_seconds"]),
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, f"stdout: {proc.stdout[-2000:]}\nstderr: {proc.stderr[-2000:]}"
    details = json.loads(lines[0], parse_constant=_refuse_constant)["perfbench_details"]
    result = json.loads(lines[1], parse_constant=_refuse_constant)
    assert result["correct"] is True, details["failures"]
    values = {name: result["metrics"].get(name, {}).get("value") for name in METRICS[trace]}
    bad = {name: v for name, v in values.items() if type(v) not in (int, float) or not math.isfinite(v)}
    assert bad == {}, {name: result["metrics"].get(name) for name in bad}
    if trace:
        assert details["missing"] == {}
    else:
        assert values["ok_share"] == 1.0
