"""Reference kernel, per-op calibration and order statistics.

The machine this benchmark was written on changes speed by up to 1.7x over
a few seconds (see ``spec.json``, ``drift_evidence``).  Each op is
therefore timed next to a fixed reference kernel, and its wall time is
rescaled to what it would have taken with the kernel at ``ref_nominal_ms``:

    calibrated_ms = wall_ms * ref_nominal_ms / ref_ms

where ``ref_ms`` is the median of the reference timings taken right before
and right after the op (widened to neighbouring ops until ``REF_WINDOW``
timings are in hand).  Units stay ms and ops/s "at reference speed".
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

# Smallest number of reference timings behind one op's ref_ms.
REF_WINDOW = 9
# The tail latency is the highest op time with at least this many above it.
TAIL_BEYOND = 10
# Reference timings per burst: one per this many ms of the previous op, so
# long ops get as many samples around them as short ones do.
_BURST_PER_MS = 100.0

_rng = np.random.default_rng(20140502)
_SYM = _rng.uniform(-1.0, 1.0, (6, 6))
_SYM = _SYM + _SYM.T
_JAC = _rng.uniform(-1.0, 1.0, (48, 26, 16))
_RES = _rng.uniform(-1.0, 1.0, (48, 26))


def ref_kernel() -> float:
    """A fixed mix of the program's two kinds of work, about 1 ms on a 2-core
    Xeon virtual machine, half each:

    - element-by-element Python loops over a small numpy array, like the
      hand-written Jacobi and LU in matcore;
    - a batched Gauss-Newton step (normal equations, batched solve), like
      the census.

    Returns a checksum so nothing is optimised away.
    """
    a = _SYM.copy()
    acc = 0.0
    for _ in range(70):
        for i in range(6):
            for j in range(i + 1, 6):
                t = a[i, j] * 0.5
                a[i, j] = a[j, i] = t
                acc += t * t
    jtj = np.einsum("brn,brm->bnm", _JAC, _JAC) + np.eye(16)
    rhs = np.einsum("brn,br->bn", _JAC, _RES)
    step = np.linalg.solve(jtj, rhs[:, :, None])
    return acc + float(np.einsum("bij,bij->", step, step))


def time_ref() -> float:
    """Wall time of one reference-kernel call, in ms."""
    t0 = time.perf_counter()
    ref_kernel()
    return 1e3 * (time.perf_counter() - t0)


def burst_size(previous_op_ms: float | None) -> int:
    """Reference timings to take before the next op."""
    if previous_op_ms is None:
        return REF_WINDOW
    return max(1, math.ceil(previous_op_ms / _BURST_PER_MS))


def ref_for_op(bursts: list[list[float]], i: int, window: int = REF_WINDOW) -> float:
    """Median reference time around op i.

    bursts[i] was timed right before op i and bursts[i + 1] right after it.
    The window grows outward, one burst on each side at a time, until it
    holds at least `window` timings or covers every burst.
    """
    if not 0 <= i < len(bursts) - 1:
        raise IndexError("op index outside the timed bursts")
    lo, hi = i, i + 1
    samples = bursts[lo] + bursts[hi]
    while len(samples) < window and (lo > 0 or hi < len(bursts) - 1):
        if lo > 0:
            lo -= 1
            samples += bursts[lo]
        if hi < len(bursts) - 1:
            hi += 1
            samples += bursts[hi]
    return statistics.median(samples)


def calibrate(wall_ms: float, ref_ms: float, ref_nominal_ms: float) -> float:
    """Wall time rescaled to a machine whose reference kernel takes
    ref_nominal_ms."""
    if ref_ms <= 0.0:
        raise ValueError("reference time must be positive")
    return wall_ms * ref_nominal_ms / ref_ms


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Highest order statistic with at least `beyond` values above it.

    Returns (value, percentile): with k sorted values the answer is the
    (k - beyond)-th smallest, whose percentile is 100 (k - beyond) / k.
    With `beyond` or fewer values there is no such statistic, and the
    maximum is returned with percentile 100.
    """
    k = len(values)
    if k == 0:
        raise ValueError("no values")
    ordered = sorted(values)
    if k <= beyond:
        return ordered[-1], 100.0
    return ordered[k - beyond - 1], 100.0 * (k - beyond) / k


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


@dataclass
class Timed:
    """Wall times of a sequence of ops and the reference bursts around them.

    bursts[i] was timed right before op i; the last burst follows the last
    op.  results[i] is what `keep` made of the op's return value, or the
    exception the op raised.
    """

    wall_ms: list = field(default_factory=list)
    bursts: list = field(default_factory=list)
    results: list = field(default_factory=list)

    def ref_ms(self) -> list[float]:
        return [ref_for_op(self.bursts, i) for i in range(len(self.wall_ms))]

    def calibrated(self, ref_nominal_ms: float) -> list[float]:
        return [
            calibrate(w, r, ref_nominal_ms) for w, r in zip(self.wall_ms, self.ref_ms())
        ]

    def ref_samples(self) -> list[float]:
        return [t for burst in self.bursts for t in burst]


def run_timed(thunks, keep=None, deadline: float | None = None) -> Timed:
    """Run each zero-argument callable once, with a reference burst before
    it, and stop early once time.perf_counter() passes `deadline`.

    `keep(i, result)` runs untimed right after op i and its return value is
    stored in place of the result, so checks can drop large outputs at once.

    An op that raises is recorded, not propagated: the loop is the boundary
    that reports failures, so the traceback goes to stderr and the caller
    counts the op as failed.
    """
    out = Timed()
    previous = None
    for i, thunk in enumerate(thunks):
        if deadline is not None and time.perf_counter() > deadline:
            break
        out.bursts.append([time_ref() for _ in range(burst_size(previous))])
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # noqa: BLE001 - reported and counted as failed
            result = exc
        previous = 1e3 * (time.perf_counter() - t0)
        if keep is not None and not isinstance(result, Exception):
            try:
                result = keep(i, result)
            except Exception as exc:  # noqa: BLE001 - a failed check is a failed op
                result = exc
        if isinstance(result, Exception):
            traceback.print_exception(result, file=sys.stderr)
        out.wall_ms.append(previous)
        out.results.append(result)
    out.bursts.append([time_ref() for _ in range(burst_size(previous))])
    return out
