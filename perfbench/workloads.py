"""The four workloads: seeded inputs, the op, and the check of its output.

Each workload runs one kind of op on a fixed input sequence made from the
workload seed alone; op i uses seed + i.  Ops call only stable public entry
points of ``groupnear``, looked up on the package at call time so that the
traced run can wrap them.  Checks run outside the timed region.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import groupnear as gn

# Inputs for the warm-up op are fixed, so set-up time does not depend on
# the seed; the measured ops all come from the seed.
WARMUP_SEED = 0

CENSUS_STARTS = 1000  # the CLI default
TORUS_WEIGHTS = tuple(range(-13, 14, 2))  # rank one, bound 26
TORUS_RANK3_HALF = 10  # rank-3 sets hold 2 * 10 centrally symmetric points
TORUS_RANK3_BOX = 4  # coordinates drawn from [-4, 4]


@dataclass(frozen=True)
class Outcome:
    """What a check found: the op's certified points and the worst residual."""

    ok: bool
    points: int
    worst_residual: float
    reason: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[int], Any]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], Outcome]
    cli_argv: Callable[[Any, int, str], list]

    def inputs(self, seed: int, count: int) -> list:
        """The fixed input sequence of a run: op i draws from seed + i."""
        return [self.make_input(seed + i) for i in range(count)]

    def warmup_input(self):
        return self.make_input(WARMUP_SEED)


def as_outcome(result) -> Outcome:
    """A check's Outcome as is; anything else (an exception the op or its
    check raised) is a failed op."""
    if isinstance(result, Outcome):
        return result
    return Outcome(False, 0, float("nan"), repr(result))


def _fail(reason: str, points: int = 0) -> Outcome:
    return Outcome(False, points, float("nan"), reason)


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# ---------------------------------------------------------------------------
# closed-form: all 2^n orthogonal critical points plus the nearest one.

_CF_N = 6


def _cf_input(seed: int):
    return gn.random_general(_CF_N, seed)


def _cf_op(u):
    return gn.enumerate_orthogonal_critical(u), gn.nearest_orthogonal(u)


def _cf_check(u, out) -> Outcome:
    points, nearest = out
    count = len(points)
    if count != 2**_CF_N:
        return _fail(f"{count} points, expected {2**_CF_N}", count)
    worst = max(p.residual for p in points)
    if not worst < 1e-7:
        return _fail(f"residual {worst:.3e}", count)
    plus = sum(1 for p in points if p.det_sign == 1)
    if plus != 2 ** (_CF_N - 1):
        return _fail(f"{plus} points with det +1, expected {2 ** (_CF_N - 1)}", count)
    best = min(p.distance_sq for p in points)
    if abs(best - nearest.distance_sq) > 1e-9 * (1.0 + best):
        return _fail("nearest point is not the closest critical point", count)
    return Outcome(True, count, max(worst, nearest.residual))


def _matrix_argv(group: str):
    def argv(u, seed: int, workdir: str) -> list:
        path = _write_json(os.path.join(workdir, "u.json"), gn.matrix_to_json(u))
        return ["--seed", str(seed), "critical", group, path]

    return argv


# ---------------------------------------------------------------------------
# sl-eliminate: every real critical point on SL^pm, n = 3.

_SL_N = 3
_SL_SPEC = gn.GroupSpec("sl_pm", _SL_N)


def _sl_input(seed: int):
    return gn.random_general(_SL_N, seed)


def _sl_op(u):
    return gn.sl_critical_points(u)


def _sl_check(u, sols) -> Outcome:
    count = len(sols)
    if count == 0:
        return _fail("no critical point")
    worst = max(gn.critical_residual(s.x, u, _SL_SPEC) for s in sols)
    if not worst < 1e-7:
        return _fail(f"residual {worst:.3e}", count)
    dists = [s.distance_sq for s in sols]
    if dists != sorted(dists):
        return _fail("distances are not sorted", count)
    return Outcome(True, count, worst)


# ---------------------------------------------------------------------------
# census: multistart symplectic census, n = 4, the CLI's 1000 starts.

_CENSUS_N = 4
_CENSUS_SPEC = gn.GroupSpec("symplectic", _CENSUS_N)


def _census_input(seed: int):
    return gn.random_general(_CENSUS_N, seed), seed


def _census_op(inp):
    u, seed = inp
    return gn.multistart_census(u, _CENSUS_SPEC, starts=CENSUS_STARTS, seed=seed)


def _census_check(inp, census) -> Outcome:
    count = len(census)
    if not 1 <= count <= 24:
        return _fail(f"{count} points, expected 1 to 24", count)
    worst = max(p.residual for p in census)
    if not worst < 1e-9:
        return _fail(f"residual {worst:.3e}", count)
    if not census.attempted == census.converged + census.failed == CENSUS_STARTS:
        return _fail("attempted != converged + failed != starts", count)
    return Outcome(True, count, worst)


def _census_argv(inp, seed: int, workdir: str) -> list:
    u, op_seed = inp
    path = _write_json(os.path.join(workdir, "u.json"), gn.matrix_to_json(u))
    return ["--starts", str(CENSUS_STARTS), "--seed", str(op_seed), "critical", "symplectic", path]


# ---------------------------------------------------------------------------
# torus: rank-1 count against the volume bound, then the bound of a rank-3
# set and of its rank-2 projection.

RANK1 = gn.WeightSet(1, tuple((k,) for k in TORUS_WEIGHTS), (1,) * len(TORUS_WEIGHTS))


def _coefficient_draw(rng) -> dict:
    # Same draw as the CLI's bkk command.
    draw = {}
    for (k,) in RANK1.weights:
        mag = rng.uniform(0.2, 1.5)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        draw[k] = sign * mag
    return draw


def _symmetric_set(rng, m: int, half: int, box: int):
    """A full-rank centrally symmetric set of 2 * half distinct nonzero
    integer weights of rank m."""
    while True:
        chosen = {}
        while len(chosen) < half:
            v = tuple(int(x) for x in rng.integers(-box, box + 1, m))
            if any(v) and v not in chosen and tuple(-x for x in v) not in chosen:
                chosen[v] = None
        pts = list(chosen) + [tuple(-x for x in v) for v in chosen]
        w = gn.WeightSet(m, tuple(pts), (1,) * len(pts))
        if gn.validate_weightset(w):
            return w


def _projection(w3):
    pts = []
    for chi in w3.weights:
        p = chi[:2]
        if any(p) and p not in pts:
            pts.append(p)
    return gn.WeightSet(2, tuple(pts), (1,) * len(pts))


def _torus_input(seed: int):
    rng = np.random.default_rng(seed)
    draw = _coefficient_draw(rng)
    while True:
        w3 = _symmetric_set(rng, 3, TORUS_RANK3_HALF, TORUS_RANK3_BOX)
        w2 = _projection(w3)
        if gn.validate_weightset(w2):
            return draw, w3, w2


def _torus_op(inp):
    draw, w3, w2 = inp
    count = gn.torus_critical_count_rank1(RANK1, draw)
    return count, gn.bkk_bound(RANK1), gn.bkk_bound(w3), gn.bkk_bound(w2)


def _hull_volume(points, factor: int) -> int:
    from scipy.spatial import ConvexHull

    return int(round(factor * ConvexHull(np.asarray(points, dtype=float)).volume))


def _torus_check(inp, out) -> Outcome:
    _, w3, w2 = inp
    count, bound1, bound3, bound2 = out
    expected1 = max(TORUS_WEIGHTS) - min(TORUS_WEIGHTS)
    if not count == bound1 == expected1:
        return _fail(f"rank-1 count {count}, bound {bound1}, expected {expected1}", count)
    # Normalised volume is m! times the Euclidean volume of the hull.
    if bound3 != _hull_volume(w3.weights, 6):
        return _fail(f"rank-3 bound {bound3} disagrees with the hull volume", count)
    if bound2 != _hull_volume(w2.weights, 2):
        return _fail(f"rank-2 bound {bound2} disagrees with the hull area", count)
    return Outcome(True, count, 0.0)


def _torus_argv(inp, seed: int, workdir: str) -> list:
    obj = {"m": 1, "weights": list(TORUS_WEIGHTS)}
    path = _write_json(os.path.join(workdir, "w.json"), obj)
    return ["--seed", str(seed), "bkk", path]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed-form", _cf_input, _cf_op, _cf_check, _matrix_argv("orthogonal")),
        Workload("sl-eliminate", _sl_input, _sl_op, _sl_check, _matrix_argv("sl-pm")),
        Workload("census", _census_input, _census_op, _census_check, _census_argv),
        Workload("torus", _torus_input, _torus_op, _torus_check, _torus_argv),
    )
}
