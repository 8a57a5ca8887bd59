"""groupnear benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload closed-form --seed 0 --seconds 10 --trace 0

Run it from the root of a groupnear checkout.  It times a fixed, seeded
sequence of ops of one kind (see workloads.py), checks every output, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate traced run reports the per-layer ones (see layers.py).  The line
before it holds the details: the machine, the tail percentile, raw timings
and failure reasons.

All op times are calibrated against a reference kernel (calib.py), so they
read as ms and ops/s at reference speed.  A run does the same ops whatever
the machine's speed: enough to fill --seconds at reference speed, and never
fewer than spec.json's min_ops, so the tail has ten ops beyond it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Pinned before numpy loads, here and in every child process.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# A run must end within 180 s; ops stop being started after this many.
LOOP_DEADLINE_S = 110.0
SETUP_TIMEOUT_S = 60.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        return json.load(fh)


def op_count(spec: dict, workload: str, seconds: float) -> int:
    """Ops in one run: --seconds of work at reference speed, at least min_ops."""
    nominal = spec["workloads"][workload]["nominal_op_ms"]
    return max(spec["min_ops"], math.ceil(1e3 * seconds / nominal))


def machine_block(spec: dict) -> dict:
    import numpy as np

    def version(name):
        try:
            return __import__(name).__version__
        except ImportError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "ref_nominal_ms": spec["ref_nominal_ms"],
    }


def run_setups(workload: str, seed: int, count: int, spec: dict) -> dict:
    """Time `setup_repeats` fresh interpreters, one after the other; each
    times its own reference bursts for calibration."""
    import calib

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.getcwd(), "src"), HERE])
    argv = [
        sys.executable,
        os.path.join(HERE, "setup_probe.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--count",
        str(count),
    ]
    wall, ref, import_s = [], [], []
    for _ in range(spec["setup_repeats"]):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        wall.append(elapsed - report["ref_total_s"])
        ref.append(report["ref_ms"])
        import_s.append(report["import_s"])
    nominal = spec["ref_nominal_ms"]
    return {
        "wall_s": wall,
        "ref_ms": ref,
        "setup_s": [calib.calibrate(w, r, nominal) for w, r in zip(wall, ref)],
        "import_s": [calib.calibrate(s, r, nominal) for s, r in zip(import_s, ref)],
    }


def end_to_end(w, seed: int, count: int, spec: dict, setups: dict, deadline: float):
    """The untraced run: returns (outcomes, metrics, details)."""
    import calib
    import workloads

    inputs = w.inputs(seed, count)
    warm = w.warmup_input()
    w.check(warm, w.op(warm))  # first calls of the op and of its check, untimed
    timed = calib.run_timed(
        [lambda x=x: w.op(x) for x in inputs],
        keep=lambda i, out: w.check(inputs[i], out),
        deadline=deadline,
    )
    outcomes = [workloads.as_outcome(r) for r in timed.results]
    attempted = len(outcomes)
    cal = timed.calibrated(spec["ref_nominal_ms"])
    tail_ms, tail_pct = calib.tail(cal)
    ok = [o for o in outcomes if o.ok]
    metrics = {
        "setup_s": statistics.median(setups["setup_s"]),
        "throughput_ops_s": attempted / (sum(cal) / 1e3),
        "latency_p50_ms": statistics.median(cal),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": len(ok) / attempted,
        "points_per_op": sum(o.points for o in ok) / attempted,
    }
    refs = timed.ref_samples()
    details = {
        "ops": attempted,
        "ops_planned": count,
        "latency_tail_percentile": tail_pct,
        "latency_tail_ops_beyond": min(calib.TAIL_BEYOND, attempted - 1),
        "failed_share": 1.0 - len(ok) / attempted,
        "raw_latency_p50_ms": statistics.median(timed.wall_ms),
        "raw_throughput_ops_s": attempted / (sum(timed.wall_ms) / 1e3),
        "ref_kernel_ms": statistics.median(refs),
        "ref_kernel_iqr_ms": calib.iqr(refs),
        "worst_residual": max((o.worst_residual for o in ok), default=None),
    }
    return outcomes, metrics, details


def main(argv=None) -> int:
    args = _parse(argv)
    t_start = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "groupnear", "__init__.py")):
        print("perfbench: src/groupnear not found; run from a groupnear checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    spec = load_spec()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    count = op_count(spec, w.name, args.seconds)
    setups = run_setups(w.name, args.seed, count, spec)
    deadline = t_start + LOOP_DEADLINE_S
    if args.trace:
        import layers

        outcomes, metrics, details = layers.traced_run(w, args.seed, count, spec, setups, deadline)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        outcomes, metrics, details = end_to_end(w, args.seed, count, spec, setups, deadline)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    failures = [o.reason for o in outcomes if not o.ok]
    details.update(
        workload=w.name,
        seed=args.seed,
        trace=args.trace,
        machine=machine_block(spec),
        setup=setups,
        failures=failures[:5],
        run_s=time.perf_counter() - t_start,
    )
    print(json.dumps({"perfbench_details": details}))
    out = {}
    for name, unit in units.items():
        value = metrics.get(name)
        if isinstance(value, tuple):  # (None, reason) from the traced run
            out[name] = {"value": None, "unit": unit, "reason": value[1]}
        else:
            out[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(outcomes),
                "failed": len(failures),
                "metrics": out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
