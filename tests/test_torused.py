"""Weight sets, polytope volume bounds, and rank-one critical counts."""

import itertools

import numpy as np
import pytest

from groupnear import torused
from groupnear.errors import DegeneracyError, InputError, UnsupportedError
from groupnear.torused import (
    WeightSet,
    bkk_bound,
    bkk_tightness_experiment,
    random_rank1_coefficients,
    torus_critical_count_rank1,
    validate_weightset,
    weightset_from_json,
    weightset_to_json,
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
    import math

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

    @pytest.mark.parametrize("index", [True, 2.0])
    def test_lattice_index_must_be_an_integer(self, index):
        with pytest.raises(InputError, match="lattice_index: expected an integer"):
            WeightSet(1, ((-2,), (2,)), (1, 1), lattice_index=index)


class TestJson:
    def test_round_trip(self):
        w = WeightSet(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (1, 2, 1, 2))
        again = weightset_from_json(weightset_to_json(w))
        assert again == w

    def test_defaults(self):
        w = weightset_from_json({"m": 1, "weights": [[-1], [1]]})
        assert w.mults == (1, 1)
        assert w.lattice_index == 1

    def test_flat_weight_list_rejected(self):
        with pytest.raises(InputError):
            weightset_from_json({"m": 1, "weights": [-1, 1]})


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


class TestTightnessExperiment:
    def test_counts_never_exceed_bound(self):
        w = _sym_line(3)
        out = bkk_tightness_experiment(w, seeds=6)
        assert out["bound"] == 6
        assert len(out["counts"]) == 6
        assert all(c <= out["bound"] for c in out["counts"])

    def test_halved_lattice_bound_and_counts(self):
        # The bound counts in the ambient lattice; the doubled sublattice
        # halves the observed solution count.
        w = _sym_line(4, index=2)
        out = bkk_tightness_experiment(w, seeds=4)
        assert out["bound"] == 8
        assert all(c == 4 for c in out["counts"])


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_random_rank1_coefficients_match_reference_draw(seed):
    w = _sym_line(7)
    assert random_rank1_coefficients(w, seed) == _draw(w, seed)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_random_rank1_coefficients_refuse_bad_seeds(seed):
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        random_rank1_coefficients(_sym_line(7), seed)
