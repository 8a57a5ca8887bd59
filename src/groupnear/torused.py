"""Compact-torus critical-point machinery.

A torus sitting diagonally in GL(V) is described by its weight set: the
integer characters appearing in the complexified module, with their
multiplicities.  Critical points of the squared distance correspond to
solutions of a sparse Laurent system supported on those weights, so the
solution count is bounded by the normalized volume of their convex hull.
That volume is computed exactly up to rank three: rank 2 is a monotone-chain
hull and the shoelace sum, and rank 3, where the set is centrally symmetric,
sums pyramids from the origin over one facet of each opposite pair and
doubles the sum, each facet's area taken in its own lattice.  `bkk_bound`
refuses a set past its size limits (rank, rank-3 weight count, entry size)
before it checks the set.  A centrally symmetric set spans Q^m exactly when
its hull has positive volume, so `bkk_bound` reads full rank from the
volume it computes, and from nothing else; `validate_weightset`, which
covers any rank and entry size and computes no volume, tests
det(W^t W) != 0, exact in Python integers.  In rank one the system is a
single Laurent polynomial and the count is exact: its exponents are shifted
to start at 0 and divided by their gcd g, so the companion matrix has
degree (max - min) / g, and each of its nonzero roots stands for g roots.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError, UnsupportedError
from .matcore import _check_seed
from .polyres import distinct_root_count, poly_roots


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


def _gram_full_rank(rows: list[tuple[int, ...]], m: int) -> bool:
    """True iff the integer rows span Q^m: det(W^t W) != 0, with the m x m
    Gram matrix in Python integers and Bareiss's fraction-free elimination,
    whose every division is exact.  Its pivots are the leading principal
    minors, and a positive semidefinite matrix with a vanishing one is
    singular (Fischer's inequality), so no row swap is needed."""
    work = [[sum(r[i] * r[j] for r in rows) for j in range(m)] for i in range(m)]
    prev = 1
    for col in range(m):
        p = work[col][col]
        if p == 0:
            return False
        for i in range(col + 1, m):
            work[i] = [(p * work[i][j] - work[i][col] * work[col][j]) // prev for j in range(m)]
        prev = p
    return True


def _symmetric(w: WeightSet) -> bool:
    """True iff -chi is a weight of the same multiplicity as chi, for every
    chi, each mirror looked up in the one table {chi: mult}."""
    table = dict(zip(w.weights, w.mults))
    return all(table.get(tuple([-x for x in chi])) == mult for chi, mult in table.items())


def validate_weightset(w: WeightSet) -> bool:
    """True iff the set is centrally symmetric (with matching
    multiplicities) and generates a full-rank sublattice of Z^m, the latter
    tested as det(W^t W) != 0 at any rank and entry size."""
    return _symmetric(w) and _gram_full_rank(w.weights, w.m)


def weightset_from_json(obj) -> WeightSet:
    """The WeightSet of a JSON object {"m", "weights", optional "mults" and
    "lattice_index"}.  Rank-one weights may be bare integers, as in
    {"m": 1, "weights": [-3, -1, 1, 3]}."""
    if not isinstance(obj, dict):
        raise InputError("weight set: expected a JSON object")
    for key in ("m", "weights"):
        if key not in obj:
            raise InputError(f"weight set: missing field {key!r}")
    raw = obj["weights"]
    if obj["m"] == 1 and isinstance(raw, list) and all(type(v) is int for v in raw):
        raw = [[v] for v in raw]
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
def _triples(n: int) -> np.ndarray:
    """Index rows (i, j, l), a (3, s) array, of the 3-subsets i < j < l of
    range(2 * n) with j < n, that is with at most one index >= n, and with
    no index pair {k, k + n}: s = C(n, 3) + (n - 2) C(n, 2).  Mirroring
    every index (k <-> k + n) maps a subset with t indices >= n to one with
    3 - t, so the table holds exactly one subset of each mirror pair.  A
    subset holding a weight and its mirror spans a plane through the
    origin, which lies inside a full-rank symmetric set's hull, so such a
    plane never supports a facet and is not tried."""
    r = np.arange(2 * n)
    i, j = r[:n, None, None], r[:n, None]
    table = np.array(np.nonzero((i < j) & (j < r) & (r % n != i) & (r % n != j)))
    table.flags.writeable = False
    return table


def _leading_sign(x, y, z):
    """Sign of the first nonzero of (x, y, z), elementwise; 0 for zero."""
    return np.sign(np.where(x != 0, x, np.where(y != 0, y, z)))


# Row order that turns edge vectors (d, e) into the cross product d x e as
# d[1, 2, 0] * e[2, 0, 1] - d[2, 0, 1] * e[1, 2, 0].
_CROSS = np.array([1, 2, 0, 2, 0, 1])


def _facets(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One facet of each opposite pair of the hull of a (2n, 3) int64 point
    array with pts[n:] == -pts[:n]: unreduced normals whose first nonzero
    entry is positive, offsets, and (f, 2n) member masks.  A rank-deficient
    array has no facet, and f is 0.

    Every 3-subset spans a candidate plane with normal v; its mirror image
    spans the mirrored plane, which supports a facet iff the first does,
    and a subset holding a weight and its mirror spans a plane through the
    interior origin, so only the subsets of _triples are tried.  By
    symmetry max(pts @ v) >= |h|, where h = v . a for a weight a of the
    subset, and the plane supports a facet iff equality holds with h != 0
    (the origin is interior); that facet, v . x == max, is the pair's one
    with the positive leading entry.  Facets spanned by several subsets are
    told apart by their member sets, and the first subset's normal is kept.
    When the points span at most a plane through the origin, every normal
    is orthogonal to them or zero, so top is 0 and no plane is kept.  The
    search makes a fixed number of numpy calls per block of _BLOCK subsets,
    which at the sizes in use costs more than their arithmetic.
    """
    n = len(pts) // 2
    if n < 3:  # two pairs of weights span no solid, and _triples(n) is empty
        return np.empty((0, 3), np.int64), np.empty(0, np.int64), np.empty((0, len(pts)), bool)
    x = np.ascontiguousarray(pts.T)
    table = _triples(n)
    parts = []
    for start in range(0, table.shape[1], _BLOCK):
        subsets = table[:, start : start + _BLOCK]
        corners = x.take(subsets, axis=1)  # (coordinate, corner, subset)
        edges = (corners[:, 1:] - corners[:, :1]).take(_CROSS, axis=0)
        normals = edges[:3, 0] * edges[3:, 1] - edges[3:, 0] * edges[:3, 1]
        normals *= _leading_sign(*normals)
        # Only pts[:n] is multiplied: the sides of pts[n:] are their negatives,
        # and h is the side of a = pts[subsets[0]] (an index < n).  numpy's
        # int64 matmul does not go through BLAS; einsum's loop is faster.
        sides = np.einsum("ij,jk->ik", pts[:n], normals)
        size = np.abs(sides)
        top = size.max(axis=0)
        keep = np.flatnonzero((top == size[subsets[0], np.arange(subsets.shape[1])]) & (top > 0))
        parts.append((normals[:, keep], sides[:, keep], top[keep]))
    normals, sides, top = (np.concatenate(part, axis=-1) for part in zip(*parts))
    members = np.concatenate([sides == top, sides == -top]).T
    raw, width, found = members.tobytes(), members.shape[1], {}
    for k in range(top.size):
        found.setdefault(raw[k * width : (k + 1) * width], k)
    unique = list(found.values())
    return normals[:, unique].T, top[unique], members[unique]


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
    """m! times the Euclidean volume of the hull of a (k, m) int64 point
    array, m <= 3, exactly; 0 when the points do not span R^m.  Rank 3
    requires a centrally symmetric set.

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
    rows = pts.tolist()
    for normal, offset, on_face in zip(normals[larger].tolist(), offsets[larger].tolist(), members[larger].tolist()):
        axis = max(range(3), key=lambda col: abs(normal[col]))
        face = [row[:axis] + row[axis + 1 :] for row, on in zip(rows, on_face) if on]
        total += offset * _twice_area(face) // abs(normal[axis])
    return 2 * total


def bkk_bound(w: WeightSet) -> int:
    """Normalized volume of the weight hull: the upper bound for the number
    of torus critical points.  Normalization makes the standard simplex
    have volume one, so this is m! times the Euclidean volume.  Does not
    depend on multiplicities.

    Three size limits raise UnsupportedError before the set is checked:
    rank m <= 3, at most 150 rank-3 weights, where the O(k**4) facet search
    takes about 0.2 s on a 2-core x86 machine, and weight entries of
    absolute value at most 2**19, where that search's exact int64
    arithmetic ends.  A set within them that is not centrally symmetric
    with matching multiplicities, or does not span Q^m, raises InputError.
    A symmetric set's hull contains the origin, so it is full-dimensional,
    with positive volume, exactly when the set spans Q^m: full rank is read
    from the volume, and a zero volume is refused."""
    if w.m > 3:
        raise UnsupportedError("bkk_bound supports torus rank m <= 3")
    if w.m == 3 and len(w.weights) > _MAX_RANK3_WEIGHTS:
        raise UnsupportedError(
            f"bkk_bound supports at most {_MAX_RANK3_WEIGHTS} rank-3 weights, got {len(w.weights)}"
        )
    if max(map(abs, itertools.chain.from_iterable(w.weights))) > _MAX_ENTRY:
        raise UnsupportedError(f"bkk_bound supports weight entries of absolute value <= {_MAX_ENTRY}")
    volume = _normalized_volume(np.array(w.weights, dtype=np.int64)) if _symmetric(w) else 0
    if volume == 0:
        raise InputError("bkk_bound: weight set is not a valid torus weight set")
    return volume


def _weight_key(chi) -> tuple[int, ...]:
    if isinstance(chi, (int, np.integer)) and not isinstance(chi, bool):
        return (int(chi),)
    if not isinstance(chi, (tuple, list)):
        raise InputError(f"coefficient keys must be integer weights, got {chi!r}")
    return tuple(_as_int(x, "weight entry") for x in chi)


# The types of a rank-1 coefficient value; bool, an int subclass, is refused apart.
_REAL_TYPES = (int, float, np.integer, np.floating)


# The companion matrix of a degree-d polynomial is d x d and its QR
# iteration costs O(d**3): 2-4 s at d = 1024 on a 2-core x86 machine.  The
# cap reads (max - min) / lattice_index, the degree before the reduction to
# t**g, so what is refused does not depend on the gcd.
_MAX_RANK1_DEGREE = 1024


def torus_critical_count_rank1(w: WeightSet, coeffs) -> int:
    """Exact count of torus critical points for a rank-one weight set.

    The critical system collapses to one Laurent polynomial whose term at
    character χ is χ times the grouped data coefficient u'_χ, so the χ = 0
    term drops out.  Denominators are cleared by t**-lo, lo the least
    remaining character, and every exponent k - lo is a multiple of
    g = gcd(k - lo), so the polynomial is one of degree (hi - lo) / g in
    s = t**g.  Each nonzero s has g distinct g-th roots t and different s
    give disjoint ones, so the count is g times the distinct nonzero roots
    in s; g is a multiple of w.lattice_index, and when that is 2 the
    parametrization is two-to-one, so the count is divided by it.  The
    roots are counted in y = t**lattice_index: each s is expanded to its
    g / lattice_index roots y, and the zero test (|y| at most 1e-12 of the
    largest, or of 1) and the merge radius (1e-7, relative above 1) are
    applied there, so a root of size r in y is judged at r, not at r**(g /
    lattice_index).  A single nonzero term is a monomial, with no nonzero
    root: the count is 0.
    coeffs is a mapping from each weight (an int or a 1-tuple) to a finite
    real number (int or float, not bool); any other key, value or
    container, a key that is not a weight of w, or a weight given twice
    (as 3 and (3,)) raises InputError.
    Degrees (hi - lo) / lattice_index above 1024 are refused with
    UnsupportedError before any work.
    """
    if w.m != 1:
        raise InputError("torus_critical_count_rank1 requires rank m = 1")
    if not isinstance(coeffs, Mapping):
        raise InputError("coefficients must be a mapping {weight: value}")
    characters, table = {chi[0] for chi in w.weights}, {}
    for k, value in coeffs.items():
        # Plain int keys and float values, the usual draw, skip the conversions.
        if type(k) is not int:
            key = _weight_key(k)
            if len(key) != 1:
                raise InputError("coefficients must be keyed by rank-1 weights")
            k = key[0]
        if k not in characters:
            raise InputError(f"coefficient given for {k}, which is not a weight")
        if k in table:
            raise InputError(f"coefficient for weight {k} given twice")
        if type(value) is not float:
            if type(value) is bool or not isinstance(value, _REAL_TYPES):
                raise InputError(f"coefficient for weight {k} must be a real number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:
                value = math.inf  # an int too large for a double
        if not math.isfinite(value):
            raise InputError("coefficients must be finite")
        table[k] = value
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
    if len(terms) == 1:
        return 0
    degree = (hi - lo) // w.lattice_index
    if degree > _MAX_RANK1_DEGREE:
        raise UnsupportedError(f"rank-1 count supports polynomial degree <= {_MAX_RANK1_DEGREE}, got {degree}")
    if not all(map(math.isfinite, terms.values())):
        raise InputError("coefficients overflow when multiplied by their characters")
    g = math.gcd(*(k - lo for k in terms))
    dense = np.zeros((hi - lo) // g + 1)
    for k, v in terms.items():
        dense[(k - lo) // g] = v
    roots = poly_roots(dense)
    h = g // w.lattice_index
    if h > 1:
        # Both tolerances below are read in y = t**lattice_index, the variable
        # of the parametrization, so each s goes back to its h roots y first.
        turns = np.exp(2j * np.pi * np.arange(h) / h)
        roots = (roots[:, None] ** (1 / h) * turns).ravel()
    size = np.abs(roots)
    nonzero = roots[size > 1e-12 * max(1.0, float(size.max()))]
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
