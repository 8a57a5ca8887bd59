"""Compact-torus critical-point machinery.

A torus sitting diagonally in GL(V) is described by its weight set: the
integer characters appearing in the complexified module, with their
multiplicities.  Critical points of the squared distance correspond to
solutions of a sparse Laurent system supported on those weights, so the
solution count is bounded by the normalized volume of their convex hull.
That volume is computed exactly, for every rank up to three, by one
recursion: pyramids from one weight over the hull's facets, each facet's
volume taken one dimension down in its own lattice.  In rank one the
system is a single Laurent polynomial and the count can be computed
exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
        index = _as_int(self.lattice_index, "lattice_index")
        if index not in (1, 2):
            raise InputError("lattice_index: must be 1 or 2")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "lattice_index", index)


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
    raw = obj["weights"]
    if not isinstance(raw, list) or not all(isinstance(v, list) for v in raw):
        raise InputError("weights: expected a list of integer vectors")
    mults = obj.get("mults", [1] * len(raw))
    if not isinstance(mults, list):
        raise InputError("mults: expected a list of integers")
    return WeightSet(m=obj["m"], weights=raw, mults=mults, lattice_index=obj.get("lattice_index", 1))


# Orientation values reach 48 * B**3 for entries bounded by B in rank 3,
# which stays below 2**63 for B = 2**19, so the int64 tests are exact.
_MAX_ENTRY = 2**19
# Subsets tested at once; a block holds k * _BLOCK orientation values.
_BLOCK = 4096


def _facets(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Primitive outward normals and offsets of every facet of the hull of
    a full-dimensional (k, m) int64 point array, m = 2 or 3.

    Every m-subset spans a candidate hyperplane; a block of subsets is
    tested against all points at once, and a candidate with every point
    weakly on one side supports a facet.
    """
    k, m = pts.shape
    subsets = itertools.combinations(range(k), m)
    found = []
    while block := list(itertools.islice(subsets, _BLOCK)):
        idx = np.array(block)
        d = pts[idx[:, 1:]] - pts[idx[:, :1]]
        if m == 2:
            normals = d[:, 0, ::-1] * np.array([1, -1])
        else:
            normals = np.cross(d[:, 0], d[:, 1])
        sides = pts @ normals.T - np.sum(normals * pts[idx[:, 0]], axis=1)
        below = np.all(sides <= 0, axis=0)
        above = np.all(sides >= 0, axis=0)
        keep = (below | above) & np.any(normals != 0, axis=1)
        found.append(np.where(below[keep, None], 1, -1) * normals[keep])
    normals = np.concatenate(found)
    normals //= np.gcd.reduce(normals, axis=1)[:, None]
    normals = np.unique(normals, axis=0)
    return normals, np.max(pts @ normals.T, axis=0)


def _normalized_volume(pts: np.ndarray) -> int:
    """m! times the Euclidean volume of the hull of a full-dimensional
    (k, m) int64 point array, exactly.

    The hull is cut into pyramids from pts[0] over its facets.  A pyramid's
    normalized volume is its lattice height times its base's normalized
    volume in the facet's own lattice, which is the volume of the base
    projected along the normal's largest coordinate, divided by that
    coordinate's absolute value.
    """
    if pts.shape[1] == 1:
        return int(pts.max() - pts.min())
    total = 0
    for normal, offset in zip(*_facets(pts)):
        height = int(offset - normal @ pts[0])
        if height == 0:
            continue
        axis = int(np.argmax(np.abs(normal)))
        face = np.delete(pts[pts @ normal == offset], axis, axis=1)
        total += height * (_normalized_volume(face) // abs(int(normal[axis])))
    return total


def bkk_bound(w: WeightSet) -> int:
    """Normalized volume of the weight hull: the upper bound for the number
    of torus critical points.  Normalization makes the standard simplex
    have volume one, so this is m! times the Euclidean volume.  Does not
    depend on multiplicities.  Weight entries are limited to 2**19 in
    absolute value, where the exact int64 hull arithmetic ends."""
    if w.m > 3:
        raise UnsupportedError("bkk_bound supports torus rank m <= 3")
    if not validate_weightset(w):
        raise InputError("bkk_bound: weight set is not a valid torus weight set")
    if max(abs(x) for chi in w.weights for x in chi) > _MAX_ENTRY:
        raise UnsupportedError(f"bkk_bound supports weight entries of absolute value <= {_MAX_ENTRY}")
    return _normalized_volume(np.array(w.weights, dtype=np.int64))


def _weight_key(chi) -> tuple[int, ...]:
    if isinstance(chi, (int, np.integer)) and not isinstance(chi, bool):
        return (int(chi),)
    return tuple(_as_int(x, "weight entry") for x in chi)


# The companion matrix of a degree-d polynomial is d x d and its QR
# iteration costs O(d**3): 2-4 s at d = 1024 on a 2-core x86 machine.
_MAX_RANK1_DEGREE = 1024


def torus_critical_count_rank1(w: WeightSet, coeffs) -> int:
    """Exact count of torus critical points for a rank-one weight set.

    The critical system collapses to one Laurent polynomial whose term at
    character χ is χ times the grouped data coefficient u'_χ, so the χ = 0
    term drops out.  Denominators are cleared and the distinct nonzero
    complex roots are counted; when w.lattice_index is 2 the parametrization
    is two-to-one and the count is taken in the variable t².  Polynomial
    degrees above 1024 are refused with UnsupportedError before any work.
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
    if w.lattice_index == 2 and any(k % 2 for k in terms):
        raise InputError("lattice_index 2 requires all characters even")
    step = w.lattice_index
    degree = (hi - lo) // step
    if degree > _MAX_RANK1_DEGREE:
        raise UnsupportedError(f"rank-1 count supports polynomial degree <= {_MAX_RANK1_DEGREE}, got {degree}")
    dense = np.zeros(degree + 1)
    for k, v in terms.items():
        dense[(k - lo) // step] = v
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
