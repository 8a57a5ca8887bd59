"""Compact-torus critical-point machinery.

A torus sitting diagonally in GL(V) is described by its weight set: the
integer characters appearing in the complexified module, with their
multiplicities.  Critical points of the squared distance correspond to
solutions of a sparse Laurent system supported on those weights, so the
solution count is bounded by the normalized volume of their convex hull.
In rank one the system is a single Laurent polynomial and the count can
be computed exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DegeneracyError, InputError, UnsupportedError
from .polyres import UniPoly, distinct_root_count, poly_roots

__all__ = [
    "WeightSet",
    "validate_weightset",
    "weightset_to_json",
    "weightset_from_json",
    "bkk_bound",
    "torus_critical_count_rank1",
    "random_rank1_coefficients",
    "bkk_tightness_experiment",
]


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name}: expected an integer")
    return int(value)


@dataclass(frozen=True)
class WeightSet:
    """Distinct integer characters of a rank-m torus with multiplicities.

    lattice_index records whether the complexified group's character
    lattice is all of Z^m (1) or the index-two sublattice (2); it rides
    along for the rank-1 solution count and the wire format.
    """

    m: int
    weights: tuple[tuple[int, ...], ...]
    mults: tuple[int, ...]
    lattice_index: int = 1

    def __post_init__(self):
        m = _as_int(self.m, "m")
        if m < 1:
            raise InputError("m: torus rank must be positive")
        ws = []
        for w in self.weights:
            try:
                vec = tuple(_as_int(x, "weight entry") for x in w)
            except TypeError:
                raise InputError("weights: expected vectors of integers") from None
            if len(vec) != m:
                raise InputError(f"weights: expected vectors of length {m}")
            ws.append(vec)
        if len(set(ws)) != len(ws):
            raise InputError("weights: characters must be distinct")
        if not ws:
            raise InputError("weights: at least one character required")
        mults = tuple(_as_int(x, "multiplicity") for x in self.mults)
        if len(mults) != len(ws):
            raise InputError("mults: one multiplicity per weight required")
        if any(x < 1 for x in mults):
            raise InputError("mults: multiplicities must be positive")
        if self.lattice_index not in (1, 2):
            raise InputError("lattice_index: must be 1 or 2")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "mults", mults)


def _integer_rank(rows: list[tuple[int, ...]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    work = [list(r) for r in rows]
    cols = len(work[0]) if work else 0
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank][col]
        for i in range(rank + 1, len(work)):
            q = work[i][col]
            if q != 0:
                work[i] = [p * b - q * a for a, b in zip(work[rank], work[i])]
        rank += 1
        if rank == len(work):
            break
    return rank


def validate_weightset(w: WeightSet) -> bool:
    """True iff the set is centrally symmetric (with matching
    multiplicities) and generates a full-rank sublattice of Z^m."""
    table = dict(zip(w.weights, w.mults))
    for chi, mult in table.items():
        neg = tuple(-x for x in chi)
        if table.get(neg) != mult:
            return False
    return _integer_rank(list(w.weights)) == w.m


def weightset_to_json(w: WeightSet) -> dict:
    return {
        "m": w.m,
        "weights": [list(chi) for chi in w.weights],
        "mults": list(w.mults),
        "lattice_index": w.lattice_index,
    }


def weightset_from_json(obj) -> WeightSet:
    if not isinstance(obj, dict):
        raise InputError("weight set: expected a JSON object")
    for key in ("m", "weights"):
        if key not in obj:
            raise InputError(f"weight set: missing field {key!r}")
    m = _as_int(obj["m"], "m")
    raw = obj["weights"]
    if not isinstance(raw, list) or not all(isinstance(v, list) for v in raw):
        raise InputError("weights: expected a list of integer vectors")
    weights = tuple(tuple(_as_int(x, "weight entry") for x in v) for v in raw)
    mults = obj.get("mults", [1] * len(weights))
    if not isinstance(mults, list):
        raise InputError("mults: expected a list of integers")
    index = _as_int(obj.get("lattice_index", 1), "lattice_index")
    return WeightSet(m=m, weights=weights, mults=tuple(_as_int(x, "multiplicity") for x in mults), lattice_index=index)


def _hull_2d(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone-chain convex hull, counterclockwise, no duplicates."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _shoelace_twice(hull: list[tuple[int, int]]) -> int:
    total = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        total += x1 * y2 - x2 * y1
    return abs(total)


def _sub3(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _det3(a, b, c):
    return _dot3(a, _cross3(b, c))


def _supporting_planes(pts: list[tuple[int, int, int]]) -> dict:
    """All hull facet planes, keyed by primitive outward data, mapping to
    the indices of points lying on the plane.  Every triple is tried; with
    the handful of weights a torus module carries, simplicity beats an
    output-sensitive wrap."""
    planes = {}
    k = len(pts)
    for a, b, c in itertools.combinations(range(k), 3):
        n = _cross3(_sub3(pts[b], pts[a]), _sub3(pts[c], pts[a]))
        if n == (0, 0, 0):
            continue
        offset = _dot3(n, pts[a])
        sides = [_dot3(n, p) - offset for p in pts]
        if all(s <= 0 for s in sides):
            n, offset, sides = tuple(-x for x in n), -offset, [-s for s in sides]
        elif not all(s >= 0 for s in sides):
            continue
        g = gcd(gcd(gcd(abs(n[0]), abs(n[1])), abs(n[2])), abs(offset))
        key = (n[0] // g, n[1] // g, n[2] // g, offset // g)
        planes.setdefault(key, tuple(i for i, s in enumerate(sides) if s == 0))
    return planes


def _hull_volume_sixfold(pts: list[tuple[int, int, int]]) -> int:
    """Six times the Euclidean hull volume, exactly, by fanning facet
    triangles from one hull vertex."""
    apex = min(pts)
    vol = 0
    for (nx, ny, nz, off), members in _supporting_planes(pts).items():
        if _dot3((nx, ny, nz), apex) == off:
            continue
        face = [pts[i] for i in members]
        drop = max(range(3), key=lambda axis: abs((nx, ny, nz)[axis]))
        keep = [axis for axis in range(3) if axis != drop]
        flat = {(p[keep[0]], p[keep[1]]): p for p in face}
        ring = [flat[q] for q in _hull_2d(list(flat))]
        for p, q in zip(ring[1:], ring[2:]):
            vol += abs(_det3(_sub3(ring[0], apex), _sub3(p, apex), _sub3(q, apex)))
    return vol


def bkk_bound(w: WeightSet) -> int:
    """Normalized volume of the weight hull: the upper bound for the number
    of torus critical points.  Normalization makes the standard simplex
    have volume one, so this is m! times the Euclidean volume.  Does not
    depend on multiplicities."""
    if w.m > 3:
        raise UnsupportedError("bkk_bound supports torus rank m <= 3")
    if not validate_weightset(w):
        raise InputError("bkk_bound: weight set is not a valid torus weight set")
    if w.m == 1:
        vals = [chi[0] for chi in w.weights]
        return max(vals) - min(vals)
    if w.m == 2:
        hull = _hull_2d([(chi[0], chi[1]) for chi in w.weights])
        if len(hull) < 3:
            return 0
        return _shoelace_twice(hull)
    pts = [(chi[0], chi[1], chi[2]) for chi in w.weights]
    return _hull_volume_sixfold(pts)


def _weight_key(chi) -> tuple[int, ...]:
    if isinstance(chi, (int, np.integer)) and not isinstance(chi, bool):
        return (int(chi),)
    return tuple(_as_int(x, "weight entry") for x in chi)


def torus_critical_count_rank1(w: WeightSet, coeffs) -> int:
    """Exact count of torus critical points for a rank-one weight set.

    The critical system collapses to one Laurent polynomial whose term at
    character χ is χ times the grouped data coefficient u'_χ, so the χ = 0
    term drops out.  Denominators are cleared and the distinct nonzero
    complex roots are counted; when w.lattice_index is 2 the parametrization
    is two-to-one and the count is taken in the variable t².
    """
    if w.m != 1:
        raise InputError("torus_critical_count_rank1 requires rank m = 1")
    table = {}
    for chi, value in dict(coeffs).items():
        key = _weight_key(chi)
        if len(key) != 1:
            raise InputError("coefficients must be keyed by rank-1 weights")
        fv = float(value)
        if not np.isfinite(fv):
            raise InputError("coefficients must be finite")
        table[key[0]] = fv
    terms = {}
    for chi in w.weights:
        k = chi[0]
        if k not in table:
            raise InputError(f"missing coefficient for weight {k}")
        if k != 0:
            terms[k] = k * table[k]
    if not terms:
        raise DegeneracyError("all characters are zero; no critical equation")
    lo, hi = min(terms), max(terms)
    if terms[lo] == 0.0 or terms[hi] == 0.0:
        raise DegeneracyError("extreme coefficient vanished; draw is not generic")
    if w.lattice_index == 2:
        if any(k % 2 for k in terms):
            raise InputError("lattice_index 2 requires all characters even")
        dense = np.zeros((hi - lo) // 2 + 1)
        for k, v in terms.items():
            dense[(k - lo) // 2] = v
    else:
        dense = np.zeros(hi - lo + 1)
        for k, v in terms.items():
            dense[k - lo] = v
    roots = poly_roots(UniPoly(dense))
    nonzero = roots[np.abs(roots) > 1e-12 * max(1.0, float(np.max(np.abs(roots))))]
    return distinct_root_count(nonzero, tol=1e-7)


def random_rank1_coefficients(w: WeightSet, seed: int) -> dict:
    """Seeded generic coefficients {weight: c} for a rank-one weight set.

    Per weight, in order: a magnitude uniform in [0.2, 1.5), then a fair
    sign.  The draw order is fixed, so seeded reports stay reproducible.
    """
    rng = np.random.default_rng(seed)
    draw = {}
    for chi in w.weights:
        mag = rng.uniform(0.2, 1.5)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        draw[chi[0]] = sign * mag
    return draw


def bkk_tightness_experiment(w: WeightSet, seeds: int) -> dict:
    """Observed rank-1 counts over seeded generic draws next to the bound.

    Whether the bound is always attained is open; this gathers evidence
    without asserting it.
    """
    if w.m != 1:
        raise InputError("bkk_tightness_experiment requires rank m = 1")
    seeds = _as_int(seeds, "seeds")
    if seeds < 1:
        raise InputError("seeds: need at least one draw")
    bound = bkk_bound(w)
    counts = []
    for seed in range(seeds):
        draw = random_rank1_coefficients(w, seed)
        counts.append(torus_critical_count_rank1(w, draw))
    return {"bound": bound, "counts": counts}
