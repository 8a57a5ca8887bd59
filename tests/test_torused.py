"""Weight sets, polytope volume bounds, and rank-one critical counts."""

import itertools
import math

import numpy as np
import pytest

from groupnear import torused
from groupnear.errors import DegeneracyError, InputError, UnsupportedError
from groupnear.polyres import UniPoly, distinct_root_count, poly_roots
from groupnear.torused import (
    WeightSet,
    bkk_bound,
    random_rank1_coefficients,
    torus_critical_count_rank1,
    validate_weightset,
    weightset_from_json,
)


def _sym_line(d, step=2, index=1):
    """Weights -d, -d+step, ..., d with unit multiplicities."""
    ks = tuple((k,) for k in range(-d, d + 1, step))
    return WeightSet(1, ks, (1,) * len(ks), lattice_index=index)


def _draw(w, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for chi in w.weights:
        mag = rng.uniform(0.2, 1.5)
        out[chi[0]] = mag if rng.uniform() < 0.5 else -mag
    return out


def _hull_area_twice_bruteforce(points):
    """2x hull area via the O(k^3) edge test: (p, q) is a hull edge iff all
    other points sit weakly on one side; then sum cross products around
    the centroid of the hull vertex set."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return 0
    hull = set()
    for i, p in enumerate(pts):
        for q in pts[:i]:
            side_pos = side_neg = False
            for r in pts:
                if r == p or r == q:
                    continue
                cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
                if cross > 0:
                    side_pos = True
                elif cross < 0:
                    side_neg = True
            if not (side_pos and side_neg):
                hull.add(p)
                hull.add(q)
    verts = sorted(hull)
    if len(verts) < 3:
        return 0
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)
    verts.sort(key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    twice = 0
    for a, b in zip(verts, verts[1:] + verts[:1]):
        twice += a[0] * b[1] - a[1] * b[0]
    return abs(twice)


class TestWeightSet:
    def test_validate_symmetric_pair(self):
        w = WeightSet(1, ((-1,), (1,)), (1, 1))
        assert validate_weightset(w)

    def test_validate_rejects_asymmetric(self):
        w = WeightSet(1, ((1,), (2,)), (1, 1))
        assert not validate_weightset(w)

    def test_validate_rejects_mismatched_multiplicities(self):
        w = WeightSet(1, ((-1,), (1,)), (2, 1))
        assert not validate_weightset(w)

    def test_validate_rejects_rank_deficient(self):
        w = WeightSet(2, ((1, 0), (-1, 0)), (1, 1))
        assert not validate_weightset(w)

    def test_duplicate_weights_rejected(self):
        with pytest.raises(InputError):
            WeightSet(1, ((1,), (1,)), (1, 1))

    def test_fractional_weights_rejected(self):
        with pytest.raises(InputError):
            WeightSet(1, ((1.5,), (-1.5,)), (1, 1))

    def test_lattice_index_values(self):
        with pytest.raises(InputError):
            WeightSet(1, ((-1,), (1,)), (1, 1), lattice_index=3)

    @pytest.mark.parametrize(
        "args,message",
        [
            ((0, ((1,), (-1,)), (1, 1)), "m: torus rank must be positive"),
            ((1, (1, -1), (1, 1)), "weights: expected vectors of integers"),
            ((2, ((1,), (-1,)), (1, 1)), "weights: expected vectors of length 2"),
            ((1, (), ()), "weights: at least one character required"),
            ((1, ((1,), (-1,)), (1,)), "mults: one multiplicity per weight required"),
            ((1, ((1,), (-1,)), (1, 0)), "mults: multiplicities must be positive"),
        ],
        ids=["rank_0", "bare_ints", "wrong_length", "empty", "short_mults", "zero_mult"],
    )
    def test_malformed_sets_refused(self, args, message):
        with pytest.raises(InputError, match=f"^{message}"):
            WeightSet(*args)

    @pytest.mark.parametrize("index", [True, 2.0])
    def test_lattice_index_must_be_an_integer(self, index):
        with pytest.raises(InputError, match="lattice_index: expected an integer"):
            WeightSet(1, ((-2,), (2,)), (1, 1), lattice_index=index)


class TestJson:
    def test_all_fields(self):
        w = WeightSet(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (1, 2, 1, 2), lattice_index=2)
        obj = {"m": 2, "weights": [[1, 0], [-1, 0], [0, 1], [0, -1]], "mults": [1, 2, 1, 2], "lattice_index": 2}
        assert weightset_from_json(obj) == w

    def test_defaults(self):
        w = weightset_from_json({"m": 1, "weights": [[-1], [1]]})
        assert w.mults == (1, 1)
        assert w.lattice_index == 1

    def test_rank_one_weights_may_be_bare_integers(self):
        # The documented format: {"m": 1, "weights": [-3, -1, 1, 3]}.
        w = weightset_from_json({"m": 1, "weights": [-3, -1, 1, 3]})
        assert w == _sym_line(3)
        assert w == weightset_from_json({"m": 1, "weights": [[-3], [-1], [1], [3]]})

    @pytest.mark.parametrize(
        "obj",
        [{"m": 2, "weights": [-1, 1]}, {"m": 1, "weights": [-1, [1]]}, {"m": 1, "weights": [True, False]}],
        ids=["rank-2", "mixed", "bool"],
    )
    def test_flat_weight_list_rejected(self, obj):
        with pytest.raises(InputError, match="weights: expected a list of integer vectors"):
            weightset_from_json(obj)

    @pytest.mark.parametrize(
        "obj,message",
        [
            ([-1, 1], "weight set: expected a JSON object"),
            ({"weights": [-1, 1]}, "weight set: missing field 'm'"),
            ({"m": 1}, "weight set: missing field 'weights'"),
            ({"m": 1, "weights": [-1, 1], "mults": 1}, "mults: expected a list of integers"),
        ],
        ids=["list", "no_m", "no_weights", "scalar_mults"],
    )
    def test_malformed_objects_rejected(self, obj, message):
        with pytest.raises(InputError, match=f"^{message}"):
            weightset_from_json(obj)


class TestBound:
    def test_interval(self):
        assert bkk_bound(_sym_line(3)) == 6

    def test_pair(self):
        assert bkk_bound(_sym_line(1)) == 2

    def test_cross_polytope(self):
        w = WeightSet(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (1, 1, 1, 1))
        assert bkk_bound(w) == 4

    def test_square(self):
        w = WeightSet(2, ((1, 1), (1, -1), (-1, 1), (-1, -1)), (1,) * 4)
        assert bkk_bound(w) == 8

    def test_cube(self):
        corners = tuple(
            (a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)
        )
        w = WeightSet(3, corners, (1,) * 8)
        assert bkk_bound(w) == 48

    def test_octahedron(self):
        pts = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
        w = WeightSet(3, pts, (1,) * 6)
        assert bkk_bound(w) == 8

    def test_multiplicity_invariance(self):
        a = WeightSet(1, ((-2,), (2,)), (1, 1))
        b = WeightSet(1, ((-2,), (2,)), (7, 7))
        assert bkk_bound(a) == bkk_bound(b) == 4

    def test_interior_points_ignored(self):
        base = WeightSet(2, ((2, 0), (-2, 0), (0, 2), (0, -2)), (1,) * 4)
        padded = WeightSet(
            2, ((2, 0), (-2, 0), (0, 2), (0, -2), (1, 0), (-1, 0)), (1,) * 6
        )
        assert bkk_bound(base) == bkk_bound(padded)

    def test_invalid_set_rejected(self):
        with pytest.raises(InputError):
            bkk_bound(WeightSet(1, ((1,), (2,)), (1, 1)))

    def test_high_rank_unsupported(self):
        w = WeightSet(
            4,
            ((1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
             (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)),
            (1,) * 8,
        )
        with pytest.raises(UnsupportedError):
            bkk_bound(w)

    @pytest.mark.parametrize("seed", range(10))
    def test_planar_volume_matches_bruteforce(self, seed):
        # Random centrally symmetric planar weight sets: the fast hull
        # volume must equal the cubic-time edge-certification oracle.
        rng = np.random.default_rng(seed)
        half = set()
        while len(half) < 4:
            p = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
            if p != (0, 0):
                half.add(p)
        pts = sorted(half | {(-a, -b) for a, b in half})
        w = WeightSet(2, tuple(pts), (1,) * len(pts))
        if not validate_weightset(w):
            pytest.skip("degenerate draw")
        assert bkk_bound(w) == _hull_area_twice_bruteforce(pts)


def _box(m, r, surface):
    """Lattice points of [-r, r]^m, or only those on its boundary."""
    pts = tuple(
        p for p in itertools.product(range(-r, r + 1), repeat=m)
        if not surface or max(map(abs, p)) == r
    )
    return WeightSet(m, pts, (1,) * len(pts))


def _random_symmetric(rng, half, box):
    """A full-rank set of `half` random nonzero weights in [-box, box]^3
    and their negatives."""
    while True:
        chosen = set()
        while len(chosen) < half:
            p = tuple(int(x) for x in rng.integers(-box, box + 1, 3))
            if any(p) and tuple(-x for x in p) not in chosen:
                chosen.add(p)
        pts = sorted(chosen | {tuple(-x for x in p) for p in chosen})
        w = WeightSet(3, tuple(pts), (1,) * len(pts))
        if validate_weightset(w):
            return w


class TestHullVolume:
    @pytest.mark.parametrize("seed", range(8))
    def test_rank3_matches_convex_hull(self, seed):
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(seed)
        box = (2, 5, 40, 1000)[seed % 4]
        half = set()
        while len(half) < 3 + seed:
            p = tuple(int(x) for x in rng.integers(-box, box + 1, 3))
            if any(p) and tuple(-x for x in p) not in half:
                half.add(p)
        pts = sorted(half | {tuple(-x for x in p) for p in half})
        w = WeightSet(3, tuple(pts), (1,) * len(pts))
        if not validate_weightset(w):
            pytest.skip("degenerate draw")
        hull = spatial.ConvexHull(np.array(pts, dtype=float))
        assert bkk_bound(w) == round(6 * hull.volume)

    @pytest.mark.parametrize(
        "m,r,surface,expected",
        [(3, 2, True, 384), (3, 2, False, 384), (2, 3, True, 72)],
    )
    def test_coplanar_boxes(self, m, r, surface, expected):
        # Many subsets span each facet; every facet is counted once.
        assert bkk_bound(_box(m, r, surface)) == expected

    def test_entry_bound_is_exact(self):
        big = 2**19
        for m, expected in ((3, 48 * 2**57), (2, 2**41)):
            corners = tuple(itertools.product((-big, big), repeat=m))
            assert bkk_bound(WeightSet(m, corners, (1,) * len(corners))) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_planar_boundary_points_in_any_order(self, seed):
        # Every edge of the square carries five lattice points besides its
        # corners; the area depends neither on them nor on the input order.
        pts = list(_box(2, 3, True).weights)
        np.random.default_rng(seed).shuffle(pts)
        assert bkk_bound(WeightSet(2, tuple(pts), (1,) * len(pts))) == 72

    @pytest.mark.parametrize("seed", range(50))
    def test_workload_distribution(self, seed):
        # The torus benchmark's inputs: ten symmetric pairs of nonzero
        # weights in [-4, 4]^3, and their nonzero projections to the plane.
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(seed)
        while True:
            half = set()
            while len(half) < 10:
                p = tuple(int(x) for x in rng.integers(-4, 5, 3))
                if any(p) and tuple(-x for x in p) not in half:
                    half.add(p)
            pts = sorted(half | {tuple(-x for x in p) for p in half})
            planar = sorted({p[:2] for p in pts if any(p[:2])})
            w3 = WeightSet(3, tuple(pts), (1,) * len(pts))
            w2 = WeightSet(2, tuple(planar), (1,) * len(planar))
            if validate_weightset(w3) and validate_weightset(w2):
                break
        hull = spatial.ConvexHull(np.array(pts, dtype=float))
        assert bkk_bound(w3) == round(6 * hull.volume)
        assert bkk_bound(w2) == _hull_area_twice_bruteforce(planar)

    @pytest.mark.parametrize("a,b,c", [(1, 1, 1), (1, 2, 3), (3, 2, 1), (2, 2, 2), (1, 1, 7)])
    def test_lattice_box(self, a, b, c):
        # Every lattice point of [-a, a] x [-b, b] x [-c, c]: each facet
        # carries a grid of coplanar weights, and the volume is 48abc.
        pts = tuple(itertools.product(range(-a, a + 1), range(-b, b + 1), range(-c, c + 1)))
        assert bkk_bound(WeightSet(3, pts, (1,) * len(pts))) == 48 * a * b * c

    @pytest.mark.parametrize("b,c", [(1, 1), (3, 5), (1, 2**19), (2**19, 2**19)])
    def test_axis_octahedron(self, b, c):
        # +-a e1, +-b e2, +-c e3 at the entry bound a = 2**19: 8abc.
        a = 2**19
        axes = ((a, 0, 0), (0, b, 0), (0, 0, c))
        pts = axes + tuple(tuple(-x for x in p) for p in axes)
        assert bkk_bound(WeightSet(3, pts, (1,) * 6)) == 8 * a * b * c

    @pytest.mark.parametrize("seed", range(20))
    def test_unimodular_invariance(self, seed):
        # An integer map of determinant +-1 preserves lattice volume; the
        # image keeps every entry within the bound 2**19.
        rng = np.random.default_rng(seed)
        base = _random_symmetric(rng, int(rng.integers(3, 16)), int(rng.choice([2, 5, 50, 2000])))
        while True:
            u = np.eye(3, dtype=np.int64)
            for _ in range(5):
                i, j = rng.choice(3, 2, replace=False)
                u[i] += int(rng.integers(-3, 4)) * u[j]
            u = u[rng.permutation(3)] * rng.choice((-1, 1), 3)[:, None]
            image = np.array(base.weights) @ u.T
            if np.abs(image).max() <= 2**19:
                break
        assert round(abs(np.linalg.det(u))) == 1
        mapped = WeightSet(3, tuple(map(tuple, image.tolist())), base.mults)
        assert bkk_bound(mapped) == bkk_bound(base)

    @pytest.mark.parametrize("seed", range(5))
    def test_weight_order_invariance(self, seed):
        # Reordering the weights flips the orientation of the subsets that
        # span each facet; neither a random set's bound nor that of the
        # surface of [-2, 2]^3 moves.
        rng = np.random.default_rng(seed)
        for w in (_random_symmetric(rng, 12, 6), _box(3, 2, True)):
            expected = bkk_bound(w)
            for _ in range(3):
                order = rng.permutation(len(w.weights))
                shuffled = WeightSet(3, tuple(w.weights[i] for i in order), (1,) * len(order))
                assert bkk_bound(shuffled) == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_triples_hold_one_subset_of_each_mirror_pair(self, n):
        # Every 3-subset of range(2n) without a weight and its mirror
        # (k and k + n) is in the table or its mirror image, never both.
        table = {tuple(col) for col in torused._triples(n).T.tolist()}
        mirror = {tuple(sorted((k + n) % (2 * n) for k in t)) for t in table}
        valid = {t for t in itertools.combinations(range(2 * n), 3) if len({k % n for k in t}) == 3}
        assert not table & mirror
        assert table | mirror == valid
        assert len(table) == math.comb(n, 3) + (n - 2) * math.comb(n, 2)

    def test_weight_count_cap(self, monkeypatch):
        # 150 rank-3 weights reach the facet search; 152 (and the 343-point
        # box [-3, 3]^3) are refused before it, at once.
        def refuse(_pts):
            raise RuntimeError("_facets reached")

        monkeypatch.setattr(torused, "_facets", refuse)
        line = [(k, 0, 0) for k in range(-73, 74) if k] + [(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        at_cap = WeightSet(3, tuple(line), (1,) * len(line))
        assert len(line) == 150
        with pytest.raises(RuntimeError, match="_facets reached"):
            bkk_bound(at_cap)
        past = line + [(74, 0, 0), (-74, 0, 0)]
        for w in (WeightSet(3, tuple(past), (1,) * len(past)), _box(3, 3, False)):
            with pytest.raises(UnsupportedError, match="at most 150 rank-3 weights"):
                bkk_bound(w)

    def test_entry_past_bound_unsupported(self):
        corners = tuple(
            (a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)
        )
        pts = corners + ((2**19 + 1, 0, 0), (-(2**19) - 1, 0, 0))
        with pytest.raises(UnsupportedError):
            bkk_bound(WeightSet(3, pts, (1,) * len(pts)))


def _mirrored(m, half):
    """The WeightSet of the distinct vectors of half and their negatives."""
    pts = sorted(set(half) | {tuple(-x for x in p) for p in half})
    return WeightSet(m, tuple(pts), (1,) * len(pts))


# Centrally symmetric sets that do not span Q^m: the zero character alone,
# two points on a line, three in a plane.
RANK_DEFICIENT = {
    1: _mirrored(1, [(0,)]),
    2: _mirrored(2, [(1, 2), (2, 4)]),
    3: _mirrored(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
}


class TestRankFromVolume:
    # bkk_bound reads full rank from the hull volume it computes: a
    # symmetric set spans Q^m exactly when that volume is positive.
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rank_deficient_set_is_an_input_error(self, m):
        with pytest.raises(InputError, match="not a valid torus weight set"):
            bkk_bound(RANK_DEFICIENT[m])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_volume_of_rank_deficient_points_is_zero(self, m):
        pts = np.array(RANK_DEFICIENT[m].weights, dtype=np.int64)
        assert torused._normalized_volume(pts) == 0

    def test_facets_of_a_planar_set_are_empty(self):
        pts = np.array([(1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, 0, 0), (0, -1, 0), (-1, -1, 0)], dtype=np.int64)
        normals, offsets, members = torused._facets(pts)
        assert (normals.shape, offsets.shape, members.shape) == ((0, 3), (0,), (0, 6))
        assert (normals.dtype, offsets.dtype, members.dtype) == (np.int64, np.int64, bool)

    def test_oversized_entry_unsupported_before_rank(self, monkeypatch):
        # Past 2**19 the size is refused before the set is checked: a
        # rank-deficient or asymmetric set is as unsupported as a valid one.
        def refuse(*args):
            raise RuntimeError("the set was checked")

        monkeypatch.setattr(torused, "_symmetric", refuse)
        big = 2**20
        for half in ([(big, 0, 0), (0, 1, 0)], [(big, 0, 0), (0, 1, 0), (0, 0, 1)]):
            with pytest.raises(UnsupportedError, match="weight entries"):
                bkk_bound(_mirrored(3, half))
        with pytest.raises(UnsupportedError, match="weight entries"):
            bkk_bound(WeightSet(3, ((big, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_refuses_exactly_the_sets_validate_rejects(self, m):
        # Random symmetric sets in [-3, 3]^m, about a third of them mapped
        # by an integer matrix of rank below m onto a line or a plane; some
        # hold the zero character.
        rng = np.random.default_rng(100 + m)
        refused = 0
        for trial in range(150):
            half = rng.integers(-3, 4, size=(int(rng.integers(1, 7)), m))
            if trial % 3 == 0:
                rank = int(rng.integers(0, m))
                half = half @ (rng.integers(-2, 3, size=(m, rank)) @ rng.integers(-2, 3, size=(rank, m)))
            w = _mirrored(m, [tuple(int(x) for x in p) for p in half])
            if validate_weightset(w):
                assert bkk_bound(w) > 0
            else:
                refused += 1
                with pytest.raises(InputError):
                    bkk_bound(w)
        assert 30 < refused < 120


class TestRankOneCounts:
    @pytest.mark.parametrize("d,expected", [(1, 2), (3, 6), (5, 10), (7, 14)])
    def test_odd_weights_full_count(self, d, expected):
        w = _sym_line(d)
        for seed in range(3):
            assert torus_critical_count_rank1(w, _draw(w, seed)) == expected

    @pytest.mark.parametrize("d,expected", [(2, 2), (4, 4)])
    def test_even_weights_halved_lattice(self, d, expected):
        w = _sym_line(d, index=2)
        for seed in range(3):
            assert torus_critical_count_rank1(w, _draw(w, seed)) == expected

    def test_count_equals_bound_generic(self):
        w = _sym_line(3)
        assert torus_critical_count_rank1(w, _draw(w, 5)) == bkk_bound(w)

    def test_odd_weights_reject_halved_lattice(self):
        w = _sym_line(3, index=2)
        with pytest.raises(InputError, match="lattice_index 2 requires all characters even"):
            torus_critical_count_rank1(w, _draw(w, 0))

    def test_planar_set_rejected(self):
        w = WeightSet(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (1,) * 4)
        with pytest.raises(InputError):
            torus_critical_count_rank1(w, {})

    def test_degree_cap(self, monkeypatch):
        # Degree 1024 reaches the root finder; past it the count is refused
        # before the dense polynomial is built.
        def refuse(_poly):
            raise RuntimeError("poly_roots reached")

        monkeypatch.setattr(torused, "poly_roots", refuse)
        at_cap = _sym_line(1024, step=2048, index=2)
        with pytest.raises(RuntimeError, match="poly_roots reached"):
            torus_critical_count_rank1(at_cap, _draw(at_cap, 0))
        for w in (_sym_line(513, step=1026), _sym_line(1026, step=2052, index=2)):
            with pytest.raises(UnsupportedError, match="degree"):
                torus_critical_count_rank1(w, _draw(w, 0))

    def test_zero_extreme_coefficient_degenerate(self):
        w = _sym_line(1)
        with pytest.raises(DegeneracyError):
            torus_critical_count_rank1(w, {-1: 0.0, 1: 1.0})

    def test_zero_character_alone_is_degenerate(self):
        # The only character is 0, whose term drops out: no equation is left.
        with pytest.raises(DegeneracyError, match="all characters are zero"):
            torus_critical_count_rank1(WeightSet(1, ((0,),), (1,)), {0: 1.0})

    def test_overflowing_term_is_an_input_error(self):
        # 13 * 1e308 is not a double: refused before any root is looked for.
        w = _sym_line(13)
        draw = {**_draw(w, 0), 13: 1e308}
        with pytest.raises(InputError, match="overflow"):
            torus_critical_count_rank1(w, draw)

    @pytest.mark.parametrize(
        "coeffs,message",
        [
            ({-1: 0.5, 1.0: 0.7}, "keys"),
            ({-1: 0.5, True: 0.7}, "keys"),
            ({-1: 0.5, 1: None}, "real number"),
            ({-1: 0.5, 1: "2"}, "real number"),
            ({-1: 0.5, 1: True}, "real number"),
            ({-1: 0.5, 1: 10**400}, "finite"),
            (5, "mapping"),
            ([(-1, 0.5), (1, 0.7)], "mapping"),
            # A key that is no weight of the set has no term to go to, and
            # 1 and (1,) name one weight: neither is silently dropped.
            ({-1: 0.5, 1: 0.7, 99: 5.0}, "99, which is not a weight"),
            ({-1: 0.5, 1: 0.7, (7,): 1.0}, "7, which is not a weight"),
            ({-1: 0.5, 1: 0.7, (1,): 2.0}, "weight 1 given twice"),
            ({-1: 0.5, (1, 0): 0.7}, "keyed by rank-1 weights"),
            ({-1: 0.5}, "missing coefficient for weight 1"),
        ],
    )
    def test_malformed_coefficients_are_input_errors(self, coeffs, message):
        with pytest.raises(InputError, match=message):
            torus_critical_count_rank1(_sym_line(1), coeffs)

    def test_integer_and_numpy_coefficients_accepted(self):
        w = _sym_line(1)
        for coeffs in ({-1: 2, 1: -3}, {(-1,): np.float32(0.5), np.int64(1): np.int64(-3)}):
            assert torus_critical_count_rank1(w, coeffs) == 2

    @pytest.mark.parametrize(
        "weights,index", [(((3,),), 1), (((0,), (3,)), 1), (((-4,),), 2), (((-4,), (0,)), 2)]
    )
    def test_one_nonzero_character_is_a_monomial(self, monkeypatch, weights, index):
        # A monomial has no nonzero root; the count is 0 before any root is
        # looked for.
        def refuse(_poly):
            raise RuntimeError("poly_roots reached")

        monkeypatch.setattr(torused, "poly_roots", refuse)
        w = WeightSet(1, weights, (1,) * len(weights), lattice_index=index)
        assert torus_critical_count_rank1(w, {chi[0]: 0.5 for chi in weights}) == 0


def _reference_count_rank1(w, coeffs):
    """The rank-1 count before the reduction to t**g, kept as a reference:
    the dense polynomial in t**lattice_index, of degree
    (max - min) / lattice_index.  Inputs must be valid, with at least two
    nonzero characters."""
    terms = {chi[0]: chi[0] * coeffs[chi[0]] for chi in w.weights if chi[0] != 0}
    lo, hi = min(terms), max(terms)
    step = w.lattice_index
    dense = np.zeros((hi - lo) // step + 1)
    for k, v in terms.items():
        dense[(k - lo) // step] = v
    roots = poly_roots(UniPoly(dense))
    nonzero = roots[np.abs(roots) > 1e-12 * max(1.0, float(np.max(np.abs(roots))))]
    return distinct_root_count(nonzero, tol=1e-7)


def _scaled_set(rng, g, index, zero):
    """A rank-1 set g * f * B, f = 2 when the index is 2 and g is odd (so
    every character is even), else 1: B is 2-6 distinct nonzero integers
    in [-6, 6], centrally symmetric half the time, plus 0 when zero."""
    if rng.uniform() < 0.5:
        half = rng.choice(np.arange(1, 7), size=int(rng.integers(1, 4)), replace=False)
        base = np.r_[half, -half]
    else:
        base = rng.choice(np.r_[-6:0, 1:7], size=int(rng.integers(2, 7)), replace=False)
    scale = g * (2 if index == 2 and g % 2 else 1)
    ks = sorted(scale * int(b) for b in base) + ([0] if zero else [])
    return WeightSet(1, tuple((k,) for k in ks), (1,) * len(ks), lattice_index=index)


class TestReducedDegreeCount:
    # The count in s = t**g must equal the dense count in t**lattice_index
    # on every set: 7 scales x 2 indices x with and without 0, 300 sets per
    # scale.  The count is also a multiple of gcd(characters) / lattice_index.
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 8])
    def test_equals_the_dense_count(self, g):
        rng = np.random.default_rng(1000 + g)
        for trial in range(300):
            index, zero = 1 + trial % 2, bool(trial // 2 % 2)
            w = _scaled_set(rng, g, index, zero)
            draw = _draw(w, trial)
            count = torus_critical_count_rank1(w, draw)
            assert count == _reference_count_rank1(w, draw), w
            assert count % (math.gcd(*(chi[0] for chi in w.weights)) // index) == 0

    # Coefficient spreads of 1e6-1e13 put roots of size r in t**lattice_index
    # at r**(g / lattice_index) in s; the zero test and the merge radius must
    # still judge them at r.
    @pytest.mark.parametrize("decades", [6, 9, 13])
    @pytest.mark.parametrize("g", [2, 6, 8])
    def test_equals_the_dense_count_on_wide_spreads(self, g, decades):
        rng = np.random.default_rng(100 * g + decades)
        for trial in range(100):
            index, zero = 1 + trial % 2, bool(trial // 2 % 2)
            w = _scaled_set(rng, g, index, zero)
            draw = {k: v * 10 ** rng.uniform(-decades / 2, decades / 2) for k, v in _draw(w, trial).items()}
            assert torus_critical_count_rank1(w, draw) == _reference_count_rank1(w, draw), (w, draw)

    def test_tiny_roots_are_judged_in_t(self):
        # -1e-13 / t + 1 = 0 is s = t**2 = 1e-13: two roots t = +-3.2e-7,
        # far above the zero test there, though s itself is below it.
        w = WeightSet(1, ((-1,), (1,)), (1, 1))
        draw = {-1: 1e-13, 1: 1.0}
        assert torus_critical_count_rank1(w, draw) == 2 == _reference_count_rank1(w, draw)

    def test_degree_follows_the_gcd(self, monkeypatch):
        # Weights -9, -3, 3, 9 have gcd(k - lo) = 6: the root finder sees a
        # degree-3 polynomial in t**6 and the count is 6 x 3 = 18.
        seen = []

        def spy(poly):
            seen.append(len(poly) - 1)
            return poly_roots(poly)

        monkeypatch.setattr(torused, "poly_roots", spy)
        w = WeightSet(1, ((-9,), (-3,), (3,), (9,)), (1,) * 4)
        assert torus_critical_count_rank1(w, _draw(w, 0)) == 18 == bkk_bound(w)
        assert seen == [3]


def _integer_rank(rows):
    """Rank of an integer matrix by fraction-free elimination: the reference
    for the Gram-determinant full-rank test."""
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


class TestGramRank:
    # det(W^t W) != 0 iff rank W = m, on matrices with m = 1-4 columns and
    # 1-6 rows, small entries (often rank-deficient), zero and repeated
    # rows, and entries of +-2**19.
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_agrees_with_elimination_rank(self, m):
        rng = np.random.default_rng(m)
        for trial in range(1500):
            k = int(rng.integers(1, 7))
            rows = rng.integers(-2, 3, size=(k, m))
            if trial % 3 == 0:
                rows[rng.uniform(size=rows.shape) < 0.2] = rng.choice([-(2**19), 2**19])
            if trial % 4 == 1 and k > 1:
                rows[rng.integers(k)] = rows[rng.integers(k)]
            if trial % 5 == 2:
                rows[rng.integers(k)] = 0
            rows = [tuple(int(x) for x in r) for r in rows]
            assert torused._gram_full_rank(rows, m) == (_integer_rank(rows) == m), rows


class TestTightnessExperiment:
    def test_counts_never_exceed_bound(self):
        w = _sym_line(3)
        counts = [torus_critical_count_rank1(w, random_rank1_coefficients(w, seed)) for seed in range(6)]
        assert bkk_bound(w) == 6
        assert all(c <= 6 for c in counts)

    def test_halved_lattice_bound_and_counts(self):
        # The bound counts in the ambient lattice; the doubled sublattice
        # halves the observed solution count.
        w = _sym_line(4, index=2)
        counts = [torus_critical_count_rank1(w, random_rank1_coefficients(w, seed)) for seed in range(4)]
        assert bkk_bound(w) == 8
        assert counts == [4] * 4


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_random_rank1_coefficients_match_reference_draw(seed):
    w = _sym_line(7)
    assert random_rank1_coefficients(w, seed) == _draw(w, seed)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_random_rank1_coefficients_refuse_bad_seeds(seed):
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        random_rank1_coefficients(_sym_line(7), seed)
