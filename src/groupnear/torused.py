"""Compact-torus critical-point machinery.

A torus sitting diagonally in GL(V) is described by its weight set: the
integer characters appearing in the complexified module, with their
multiplicities.  Critical points of the squared distance correspond to
solutions of a sparse Laurent system supported on those weights, so the
solution count is bounded by the normalized volume of their convex hull.
That volume is computed exactly up to rank three: rank 2 is a monotone-chain
hull and the shoelace sum, and rank 3, where the set is centrally symmetric,
sums pyramids from the origin over one facet of each opposite pair and
doubles the sum, each facet's area taken in its own lattice.  In rank one the
system is a single Laurent polynomial and the count can be computed
exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError, UnsupportedError
from .matcore import _check_seed
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


# The rank-3 facet search's int64 values (normals and their products with the
# weights) reach 24 * B**3 for entries bounded by B, which stays below 2**63
# for B = 2**19, so its tests are exact.  Ranks 1 and 2 are exact at any size
# but share the limit.
_MAX_ENTRY = 2**19
# Subsets tested at once; a block holds k * _BLOCK int64 products.
_BLOCK = 4096
# The facet search tests C(k, 3) / 2 subsets against all k weights, O(k**4):
# on a 2-core x86 machine 150 rank-3 weights take about 0.2 s and 200 about
# 0.5 s, so larger rank-3 sets are refused before any work.
_MAX_RANK3_WEIGHTS = 150


@functools.lru_cache(maxsize=4)
def _triples(n: int) -> tuple[np.ndarray, ...]:
    """Index columns (i, j, l) of the 3-subsets i < j < l of range(2 * n)
    with j < n, that is with at most one index >= n.  Mirroring every index
    (i <-> i + n) maps a subset with t indices >= n to one with 3 - t, so
    the table holds exactly one subset of each mirror pair."""
    r = np.arange(2 * n)
    table = np.nonzero((r[:n, None, None] < r[:n, None]) & (r[:n, None] < r))
    for column in table:
        column.flags.writeable = False
    return table


def _leading_sign(x, y, z):
    """Sign of the first nonzero of (x, y, z), elementwise; 0 for zero."""
    return np.sign(np.where(x != 0, x, np.where(y != 0, y, z)))


def _facets(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One facet of each opposite pair of the hull of a full-rank (2n, 3)
    int64 point array with pts[n:] == -pts[:n]: unreduced normals whose
    first nonzero entry is positive, offsets, and (f, 2n) member masks.

    Every 3-subset spans a candidate plane with normal v; its mirror image
    spans the mirrored plane, which supports a facet iff the first does, so
    only the subsets of _triples are tried.  By symmetry max(pts @ v) >= |h|,
    where h = v . a for a weight a of the subset, and the plane supports a
    facet iff equality holds with h != 0 (the origin is interior); that
    facet, v . x == max, is the pair's one with the positive leading entry.
    Facets spanned by several subsets are told apart by their member sets.
    """
    x = np.ascontiguousarray(pts.T)
    found = {}
    table = _triples(len(pts) // 2)
    for start in range(0, table[0].size, _BLOCK):
        a, b, c = (x.take(col[start : start + _BLOCK], axis=1) for col in table)
        d, e = b - a, c - a
        normals = np.stack([d[1] * e[2] - d[2] * e[1], d[2] * e[0] - d[0] * e[2], d[0] * e[1] - d[1] * e[0]])
        normals *= _leading_sign(*normals)
        sides = pts @ normals
        top = sides.max(axis=0)
        keep = np.flatnonzero((top == np.abs(np.sum(normals * a, axis=0))) & (top > 0))
        members = (sides[:, keep] == top[keep]).T
        for on_face, normal, offset in zip(members, normals[:, keep].T, top[keep]):
            found.setdefault(on_face.tobytes(), (normal, offset, on_face))
    normals, offsets, members = map(np.array, zip(*found.values()))
    return normals, offsets, members


def _twice_area(points) -> int:
    """Twice the area of the hull of distinct planar integer points,
    exactly: Andrew's monotone chain on Python ints, which pops collinear
    points, then the shoelace sum over the counterclockwise vertices."""
    pts = sorted(map(tuple, points))
    hull = []
    for chain in (pts, pts[::-1]):
        base = len(hull)
        for x, y in chain:
            while len(hull) > base + 1:
                (ax, ay), (bx, by) = hull[-2:]
                if (bx - ax) * (y - ay) > (by - ay) * (x - ax):
                    break
                hull.pop()
            hull.append((x, y))
        hull.pop()
    return sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1]))


def _normalized_volume(pts: np.ndarray) -> int:
    """m! times the Euclidean volume of the hull of a full-dimensional
    (k, m) int64 point array, m <= 3, exactly.  Rank 3 requires a centrally
    symmetric, full-rank set.

    Rank 1 is max minus min, rank 2 twice the hull's area.  A rank-3 hull
    is cut into pyramids from the origin, its centre, over its facets, and
    opposite facets give equal pyramids, so one of each pair is summed and
    the sum doubled.  A pyramid's normalized volume is its base's offset h
    times twice the area of the base projected along the normal's largest
    coordinate, divided by that coordinate's absolute value; with the
    unreduced normal the common factor cancels.  A triangle facet's normal
    is the cross product of its own edges (or its mirror's), so there the
    quotient is 1 and the pyramid is h alone.
    """
    if pts.shape[1] == 1:
        return int(pts.max() - pts.min())
    if pts.shape[1] == 2:
        return _twice_area(pts.tolist())
    half = pts[_leading_sign(*pts.T) > 0]
    pts = np.concatenate([half, -half])
    normals, offsets, members = _facets(pts)
    larger = members.sum(axis=1) > 3
    total = sum(offsets[~larger].tolist())
    for normal, offset, on_face in zip(normals[larger].tolist(), offsets[larger].tolist(), members[larger]):
        axis = max(range(3), key=lambda col: abs(normal[col]))
        face = np.delete(pts[on_face], axis, axis=1).tolist()
        total += offset * _twice_area(face) // abs(normal[axis])
    return 2 * total


def bkk_bound(w: WeightSet) -> int:
    """Normalized volume of the weight hull: the upper bound for the number
    of torus critical points.  Normalization makes the standard simplex
    have volume one, so this is m! times the Euclidean volume.  Does not
    depend on multiplicities.  Weight entries are limited to 2**19 in
    absolute value, where the exact int64 facet search of rank 3 ends, and
    rank-3 sets to 150 weights, where that O(k**4) search takes about 0.2 s
    on a 2-core x86 machine."""
    if w.m > 3:
        raise UnsupportedError("bkk_bound supports torus rank m <= 3")
    if w.m == 3 and len(w.weights) > _MAX_RANK3_WEIGHTS:
        raise UnsupportedError(
            f"bkk_bound supports at most {_MAX_RANK3_WEIGHTS} rank-3 weights, got {len(w.weights)}"
        )
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
    _check_seed(seed, "random_rank1_coefficients")
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
