"""The traced run: per-layer metrics from spans around groupnear's functions.

The run has four parts, each timed with reference bursts like the gated
loop, so every span is calibrated by the factor of the op it belongs to:

1. The workload's own ops, each input run once untraced and once traced
   (alternating which goes first).  The pairs give trace.overhead_share and
   the raw.* figures; the traced halves give the workload's layer spans.
2. A few traced probe ops of every other workload, so that every layer
   metric has a value on every workload.  The main loop dominates the
   medians wherever the workload exercises the layer.
3. Calls that no workload op makes: resultant_chain at n = 4 (the mpmath
   path), random_group_element x starts, and cli.main on the workload's
   command with stdout captured.
4. cli.import_s, taken from the fresh-interpreter set-ups.

Each metric is looked up by the function name behind it; when the function
is gone the metric is null with the reason.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import tempfile

import numpy as np

import calib
import tracing
import workloads


class _SpanTable:
    """Calibrated span durations, grouped by span name."""

    def __init__(self, tracer: tracing.Tracer, factor: dict):
        self.tracer = tracer
        self.spans = tracer.spans
        self.own = tracer.self_ms()
        self.factor = factor

    def select(self, name: str, parent: str | None = None, **counts) -> list[int]:
        out = []
        for i, s in enumerate(self.spans):
            if s.span != name or s.op_id not in self.factor:
                continue
            if parent is not None and (s.parent is None or self.spans[s.parent].span != parent):
                continue
            if any(s.counts.get(k) != v for k, v in counts.items()):
                continue
            out.append(i)
        return out

    def missing(self, name: str):
        reason = self.tracer.missing.get(name, f"no {name} spans were recorded")
        return (None, reason)

    def median_ms(self, name: str, parent: str | None = None, own: bool = False, **counts):
        idx = self.select(name, parent, **counts)
        if not idx:
            return self.missing(name)
        source = self.own if own else [s.ms for s in self.spans]
        return statistics.median(source[i] * self.factor[self.spans[i].op_id] for i in idx)

    def counts(self, name: str, key: str, parent: str | None = None):
        idx = self.select(name, parent)
        vals = [self.spans[i].counts.get(key) for i in idx]
        vals = [v for v in vals if v is not None]
        return vals if vals else None


def _mean(vals, name: str, table: _SpanTable):
    return statistics.fmean(vals) if vals else table.missing(name)


def _traced_ops(tracer, w, inputs, tag: str, untraced_too: bool):
    """Thunks for inputs, each traced; with untraced_too each input also
    runs untraced, the two in alternating order.  Returns (thunks, op_ids)
    where op_ids[i] is None for an untraced op."""
    thunks, ids = [], []
    for j, x in enumerate(inputs):
        op_id = f"{tag}/{j}"

        def traced(x=x, op_id=op_id):
            with tracer.active(op_id):
                return w.op(x)

        pair = [(traced, op_id)]
        if untraced_too:
            plain = (lambda x=x: w.op(x), None)
            pair = [plain, pair[0]] if j % 2 == 0 else [pair[0], plain]
        for thunk, oid in pair:
            thunks.append(thunk)
            ids.append(oid)
    return thunks, ids


def _run_cli(w, inp, seed: int, reps: int, nominal: float, deadline: float):
    main, reason = tracing.resolve("cli", "main")
    if main is None:
        return (None, reason), []
    os.makedirs(".perfbench-out", exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="cli-", dir=".perfbench-out") as tmp:
        argv = w.cli_argv(inp, seed, tmp)

        def call():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                return main(argv)

        timed = calib.run_timed(
            [call] * reps,
            keep=lambda i, code: workloads.Outcome(code == 0, 0, 0.0, f"cli exit code {code}"),
            deadline=deadline,
        )
    outcomes = [workloads.as_outcome(r) for r in timed.results]
    if not timed.wall_ms:
        return (None, "deadline reached before the cli ran"), outcomes
    return statistics.median(timed.calibrated(nominal)), outcomes


def traced_run(w, seed: int, count: int, spec: dict, setups: dict, deadline: float):
    """Returns (outcomes, metrics, details) for --trace 1."""
    nominal = spec["ref_nominal_ms"]
    tracer = tracing.Tracer()
    factor: dict = {}
    outcomes: list = []

    def record(timed, ids):
        for oid, ref in zip(ids, timed.ref_ms()):
            if oid is not None:
                factor[oid] = nominal / ref
        outcomes.extend(workloads.as_outcome(r) for r in timed.results)

    # 1. the workload's own ops, untraced and traced in pairs
    inputs = w.inputs(seed, max(1, (count + 1) // 2))
    warm = w.warmup_input()
    w.check(warm, w.op(warm))  # first calls of the op and of its check, untimed
    thunks, ids = _traced_ops(tracer, w, inputs, w.name, untraced_too=True)
    main_timed = calib.run_timed(
        thunks, keep=lambda i, out: w.check(inputs[i // 2], out), deadline=deadline
    )
    record(main_timed, ids)
    cal = main_timed.calibrated(nominal)
    done = len(main_timed.wall_ms) // 2 * 2
    traced_ms = sum(cal[i] for i in range(done) if ids[i] is not None)
    plain_ms = sum(cal[i] for i in range(done) if ids[i] is None)
    plain_wall = [main_timed.wall_ms[i] for i in range(done) if ids[i] is None]

    # 2. probes of the other workloads
    for other in workloads.WORKLOADS.values():
        if other.name == w.name:
            continue
        probe_inputs = other.inputs(seed, spec["workloads"][other.name]["probe_ops"])
        p_thunks, p_ids = _traced_ops(tracer, other, probe_inputs, f"probe-{other.name}", False)
        timed = calib.run_timed(
            p_thunks,
            keep=lambda i, out, o=other, xs=probe_inputs: o.check(xs[i], out),
            deadline=deadline,
        )
        record(timed, p_ids)

    # 3. calls outside the workload ops
    extra = {}
    chain, reason = tracing.resolve("polyres", "resultant_chain")
    if chain is None:
        extra["polyres.resultant_chain_n4_ms"] = (None, reason)
    else:
        u4 = workloads.gn.random_general(4, seed)
        mu = np.sort(np.linalg.eigvalsh(u4.T @ u4))[::-1]
        timed = calib.run_timed([lambda: chain(mu)], deadline=deadline)
        extra["polyres.resultant_chain_n4_ms"] = (
            timed.calibrated(nominal)[0] if timed.wall_ms else (None, "deadline reached")
        )
    draw, reason = tracing.resolve("critsearch", "random_group_element")
    if draw is None:
        extra["critsearch.draw_ms"] = (None, reason)
    else:
        spec_g = workloads.gn.GroupSpec("symplectic", 4)
        starts = workloads.CENSUS_STARTS
        timed = calib.run_timed(
            [lambda: [draw(spec_g, seed + j) for j in range(starts)]], deadline=deadline
        )
        extra["critsearch.draw_ms"] = (
            timed.calibrated(nominal)[0] if timed.wall_ms else (None, "deadline reached")
        )
    cli_reps = spec["workloads"][w.name]["cli_reps"]
    extra["cli.critical_ms"], cli_outcomes = _run_cli(w, inputs[0], seed, cli_reps, nominal, deadline)
    outcomes.extend(cli_outcomes)

    tracer.finish()
    os.makedirs(".perfbench-out", exist_ok=True)
    spans_path = os.path.join(".perfbench-out", f"spans-{w.name}-{seed}.jsonl")
    tracer.write(spans_path)

    t = _SpanTable(tracer, factor)
    metrics = dict(extra)
    metrics["matcore.sym_eig_ms"] = t.median_ms("matcore.sym_eig")
    metrics["orthonear.enumerate_ms"] = t.median_ms("orthonear.enumerate")
    metrics["orthonear.nearest_ms"] = t.median_ms("orthonear.nearest")
    metrics["orthonear.self_ms"] = t.median_ms("orthonear.enumerate", own=True)
    metrics["critsearch.certify_ms"] = t.median_ms("critsearch.certify")
    residuals = t.counts("critsearch.certify", "residual")
    metrics["critsearch.worst_residual"] = (
        max(residuals) if residuals else t.missing("critsearch.certify")
    )
    metrics["polyres.resultant_chain_ms"] = t.median_ms("polyres.resultant_chain", "slnear.solve")
    metrics["polyres.poly_roots_ms"] = t.median_ms("polyres.poly_roots", "slnear.solve")
    metrics["polyres.chain_degree"] = _mean(
        t.counts("polyres.resultant_chain", "degree", "slnear.solve"), "polyres.resultant_chain", t
    )
    metrics["polyres.distinct_roots"] = _mean(
        t.counts("polyres.poly_roots", "distinct", "slnear.solve"), "polyres.poly_roots", t
    )
    metrics["polyres.poly_roots_torus_ms"] = t.median_ms(
        "polyres.poly_roots", "torused.count_rank1"
    )
    metrics["slnear.solve_ms"] = t.median_ms("slnear.solve")
    metrics["slnear.lift_ms"] = t.median_ms("slnear.solve", own=True)
    metrics["slnear.real_points_per_op"] = _mean(t.counts("slnear.solve", "points"), "slnear.solve", t)

    metrics["critsearch.census_ms"] = t.median_ms("critsearch.census")
    census = {k: t.counts("critsearch.census", k) for k in ("attempted", "converged", "failed", "points")}
    if census["attempted"]:
        metrics["critsearch.attempted"] = statistics.fmean(census["attempted"])
        metrics["critsearch.converged"] = statistics.fmean(census["converged"])
        metrics["critsearch.failed"] = statistics.fmean(census["failed"])
        metrics["critsearch.converged_share"] = sum(census["converged"]) / sum(census["attempted"])
        metrics["critsearch.points_per_converged"] = sum(census["points"]) / max(
            1, sum(census["converged"])
        )
    else:
        for k in ("attempted", "converged", "failed", "converged_share", "points_per_converged"):
            metrics[f"critsearch.{k}"] = t.missing("critsearch.census")

    metrics["torused.count_rank1_ms"] = t.median_ms("torused.count_rank1")
    metrics["torused.bkk_bound_rank2_ms"] = t.median_ms("torused.bkk_bound", rank=2)
    metrics["torused.bkk_bound_rank3_ms"] = t.median_ms("torused.bkk_bound", rank=3)
    metrics["torused.count_equals_bound_share"] = _count_equals_bound(t)

    import_s = setups["import_s"]
    metrics["cli.import_s"] = statistics.median(import_s)
    refs = main_timed.ref_samples()
    metrics["machine.ref_kernel_ms"] = statistics.median(refs)
    metrics["machine.ref_kernel_iqr_ms"] = calib.iqr(refs)
    if plain_wall:
        metrics["raw.throughput_ops_s"] = len(plain_wall) / (sum(plain_wall) / 1e3)
        metrics["raw.latency_p50_ms"] = statistics.median(plain_wall)
        metrics["trace.overhead_share"] = traced_ms / plain_ms - 1.0
    else:
        for k in ("raw.throughput_ops_s", "raw.latency_p50_ms", "trace.overhead_share"):
            metrics[k] = (None, "no complete untraced/traced pair before the deadline")

    details = {
        "ops": len(main_timed.wall_ms),
        "spans": len(tracer.spans),
        "spans_file": spans_path,
        "missing": tracer.missing,
        "span_counts": {
            name: len(t.select(name)) for name in tracing.INSTRUMENTED
        },
    }
    return outcomes, metrics, details


def _count_equals_bound(t: _SpanTable):
    """Share of traced torus ops whose rank-1 count equals their rank-1 bound."""
    bound_by_op = {
        t.spans[i].op_id: t.spans[i].counts.get("bound")
        for i in t.select("torused.bkk_bound", rank=1)
    }
    counts = [(t.spans[i].op_id, t.spans[i].counts.get("count")) for i in t.select("torused.count_rank1")]
    if not counts:
        return t.missing("torused.count_rank1")
    return sum(1 for op, c in counts if bound_by_op.get(op) == c) / len(counts)
