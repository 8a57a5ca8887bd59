"""Self-tests of the benchmark's helpers (not of groupnear).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import calib  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("k", [11, 20, 57, 400, 2000])
def test_tail_has_exactly_ten_values_beyond(k):
    values = list(np.random.default_rng(k).permutation(k).astype(float))
    value, pct = calib.tail(values)
    assert sum(v > value for v in values) == calib.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (k - 10) / k)


def test_tail_without_ten_beyond_is_the_maximum():
    assert calib.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_calibration_scales_by_reference_ratio():
    # An op of 30 ms while the reference ran at 2.4 ms, nominal 1.2 ms.
    assert calib.calibrate(30.0, 2.4, 1.2) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        calib.calibrate(30.0, 0.0, 1.2)


def test_ref_for_op_uses_adjacent_bursts_then_widens():
    bursts = [[1.0] * 9, [2.0], [3.0], [4.0], [5.0] * 9]
    # Op 0 sits between bursts 0 and 1: ten samples, median 1.0.
    assert calib.ref_for_op(bursts, 0) == 1.0
    # Op 2 starts with bursts 2 and 3 and widens to 1..4: [2, 3, 4, 5 x 9].
    assert calib.ref_for_op(bursts, 2) == 5.0
    assert calib.ref_for_op(bursts, 2, window=2) == 3.5
    with pytest.raises(IndexError):
        calib.ref_for_op(bursts, 4)


def test_timed_calibration_matches_per_op_arithmetic():
    timed = calib.Timed(wall_ms=[10.0, 20.0], bursts=[[2.0], [2.0], [4.0]], results=[0, 0])
    # Each op widens to all three bursts, whose median is 2.0.
    assert timed.calibrated(1.0) == pytest.approx([5.0, 10.0])


def test_run_timed_records_failures_and_keeps_check_results(capsys):
    def boom():
        raise RuntimeError("op failed")

    timed = calib.run_timed([lambda: 1, boom, lambda: 3], keep=lambda i, r: r * 10)
    assert timed.results[0] == 10 and timed.results[2] == 30
    assert isinstance(timed.results[1], RuntimeError)
    assert len(timed.bursts) == 4 and len(timed.wall_ms) == 3
    assert "op failed" in capsys.readouterr().err


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name):
    w = workloads.WORKLOADS[name]
    first = w.inputs(7, 3)
    assert _same(first, w.inputs(7, 3))
    assert not _same(first, w.inputs(8, 3))
    # Op i draws from seed + i, so a longer run extends a shorter one.
    assert _same(first[1:], w.inputs(8, 2))


def test_torus_inputs_are_symmetric_full_rank_sets():
    draw, w3, w2 = workloads.WORKLOADS["torus"].inputs(3, 1)[0]
    assert sorted(draw) == list(workloads.TORUS_WEIGHTS)
    assert len(w3.weights) == 2 * workloads.TORUS_RANK3_HALF
    assert workloads.gn.validate_weightset(w3) and workloads.gn.validate_weightset(w2)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for key in ("end_to_end", "per_layer"):
        assert [(m["name"], m["unit"]) for m in bench[key]] == [
            (m["name"], m["unit"]) for m in spec[key]
        ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert list(spec["workloads"]) == list(workloads.WORKLOADS)


def test_tracer_nests_spans_restores_bindings_and_reports_missing(monkeypatch):
    import tracing

    monkeypatch.setitem(
        tracing.INSTRUMENTED, "polyres.gone", ("polyres", "no_such_function", lambda a, k, r: {})
    )
    original = workloads.gn.sl_critical_points
    tracer = tracing.Tracer()
    assert "no longer exists" in tracer.missing["polyres.gone"]
    u = workloads.gn.random_general(3, 0)
    with tracer.active("op-0"):
        workloads.gn.sl_critical_points(u)
    tracer.finish()
    assert workloads.gn.sl_critical_points is original
    top = tracer.spans[0]
    assert top.span == "slnear.solve" and top.parent is None and top.op_id == "op-0"
    children = [s for s in tracer.spans if s.parent == 0]
    assert {"matcore.sym_eig", "polyres.resultant_chain", "polyres.poly_roots"} <= {
        s.span for s in children
    }
    assert tracer.self_ms()[0] == pytest.approx(top.ms - sum(s.ms for s in children))
    assert top.counts["points"] >= 1
