"""One set-up in a fresh interpreter: import groupnear, generate a run's
inputs, and run one warm-up op.  Prints {"import_s", "ref_ms", "ref_total_s"}
as JSON: the reference kernel is timed in this process, before and after
the set-up work, because the parent may run on another core at another
speed.  run.py subtracts ref_total_s from the process's wall time.

The warm-up op is not checked here, so the check's own imports stay out of
the set-up time; run.py checks the same op in the workload process.

run.py starts this with the thread settings and PYTHONPATH of the run and
times the whole process; import_s feeds the traced run's cli.import_s.

    python3 perfbench/setup_probe.py --workload closed-form --seed 0 --count 400
"""

import argparse
import json
import statistics
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import groupnear  # noqa: F401 - the import is what is timed

    import_s = time.perf_counter() - t0
    import calib
    import workloads

    refs = [calib.time_ref() for _ in range(calib.REF_WINDOW)]
    w = workloads.WORKLOADS[args.workload]
    w.inputs(args.seed, args.count)
    w.op(w.warmup_input())
    refs += [calib.time_ref() for _ in range(calib.REF_WINDOW)]
    print(
        json.dumps(
            {
                "import_s": import_s,
                "ref_ms": statistics.median(refs),
                "ref_total_s": sum(refs) / 1e3,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
