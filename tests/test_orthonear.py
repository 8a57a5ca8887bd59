"""Closed-form nearest points and censuses for norm-preserving groups."""

import numpy as np
import pytest

from groupnear import orthonear
from groupnear.critsearch import GroupSpec, critical_residual, membership_violation
from groupnear.errors import ConvergenceError, DegeneracyError, InputError, UnsupportedError
from groupnear.matcore import frobenius_norm, random_general
from groupnear.orthonear import (
    enumerate_orthogonal_critical,
    enumerate_special_orthogonal_critical,
    enumerate_unitary_critical,
    nearest_orthogonal,
    nearest_special_orthogonal,
    nearest_unitary,
)
from groupnear.slnear import sl_critical_points, sl_plus_critical_points


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def _reflection(t):
    return np.array([[np.cos(t), np.sin(t)], [np.sin(t), -np.cos(t)]])


def _brute_min_o2(u, grid=20000):
    """Scan both components of the 2x2 orthogonal group on an angle grid."""
    best = np.inf
    for t in np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False):
        for x in (_rotation(t), _reflection(t)):
            best = min(best, float(np.sum((u - x) ** 2)))
    return best


def _brute_min_so2(u, grid=20000):
    best = np.inf
    for t in np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False):
        best = min(best, float(np.sum((u - _rotation(t)) ** 2)))
    return best


class TestNearestOrthogonal:
    def test_antidiagonal_example(self):
        u = np.array([[0.0, 2.0], [1.0, 0.0]])
        point = nearest_orthogonal(u)
        assert np.allclose(point.x, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        assert point.distance_sq == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_angle_scan(self, seed):
        u = random_general(2, seed)
        ours = nearest_orthogonal(u).distance_sq
        brute = _brute_min_o2(u)
        # The grid overshoots the true minimum by O(step^2).
        assert ours <= brute + 1e-6
        assert ours == pytest.approx(brute, abs=1e-6)

    def test_exactly_orthogonal_input_is_its_own_nearest_point(self):
        # Both singular values of a rotation are 1: its frame is not
        # unique, but its polar factor, the rotation itself, is.
        point = nearest_orthogonal(_rotation(0.7))
        assert np.abs(point.x - _rotation(0.7)).max() < 1e-15
        assert point.distance_sq < 1e-30
        assert point.det_sign == 1

    def test_near_orthogonal_input(self):
        u = _rotation(0.7) @ np.diag([1.001, 0.999])
        point = nearest_orthogonal(u)
        assert point.distance_sq == pytest.approx(2e-6, rel=1e-2)

    def test_complex_input_rejected(self):
        with pytest.raises(InputError):
            nearest_orthogonal(np.eye(2, dtype=complex))

    def test_overflowing_input_refused(self):
        # Finite entries whose squares overflow: the distance would be inf.
        with pytest.raises(InputError, match="u: squared Frobenius norm overflows"):
            nearest_orthogonal(1e160 * random_general(3, 0))


class TestEnumerateOrthogonal:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_count_and_membership(self, n):
        u = random_general(n, 40 + n)
        points = enumerate_orthogonal_critical(u)
        assert len(points) == 2**n
        g = GroupSpec("orthogonal", n)
        for p in points:
            assert membership_violation(p.x, g) < 1e-9
            assert p.residual < 1e-9

    def test_half_have_positive_determinant(self):
        points = enumerate_orthogonal_critical(random_general(3, 44))
        assert sum(1 for p in points if p.det_sign == 1) == 4

    def test_nearest_is_the_minimum(self):
        u = random_general(3, 45)
        best = nearest_orthogonal(u).distance_sq
        dists = [p.distance_sq for p in enumerate_orthogonal_critical(u)]
        assert best == pytest.approx(min(dists), abs=1e-12)

    def test_points_are_distinct(self):
        points = enumerate_orthogonal_critical(random_general(2, 46))
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                assert frobenius_norm(points[i].x - points[j].x) > 1e-6

    def test_repeated_singular_values_rejected(self):
        # The enumerations keep the gap rule that the nearest points drop.
        solvers = (enumerate_orthogonal_critical, enumerate_special_orthogonal_critical, enumerate_unitary_critical)
        for u in (2.0 * np.eye(2), np.eye(3), np.diag([2.0, 2.0, 1.0])):
            for solve in solvers:
                with pytest.raises(DegeneracyError, match="too clustered to enumerate"):
                    solve(u)


@pytest.mark.parametrize(
    "solve",
    [
        nearest_orthogonal,
        enumerate_special_orthogonal_critical,
        nearest_unitary,
        sl_critical_points,
        sl_plus_critical_points,
    ],
    ids=lambda solve: solve.__name__,
)
def test_svd_failure_is_a_convergence_error(monkeypatch, solve):
    # Every closed-form solver takes its frame from `_svd_frame`, which
    # names a LAPACK failure as the package's ConvergenceError.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    u = random_general(3, 0)
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ConvergenceError, match="^SVD of the data matrix did not converge"):
        solve(u)


@pytest.mark.parametrize("k", [-1000, -600, -300, -100, -40, -24])
@pytest.mark.parametrize(
    "solve", [nearest_orthogonal, nearest_unitary, enumerate_special_orthogonal_critical], ids=lambda s: s.__name__
)
def test_scale_free(solve, k):
    # O, SO and U read their points off u's SVD frame, and `_svd_frame`'s
    # refusals are relative to sigma_1, so u 2^k, an exact scaling, has
    # the points of u: the same count and det signs, entries within
    # rounding (LAPACK rescales tiny input internally).
    for n in range(1, 6):
        for seed in range(6):
            u = random_general(n, seed, complex_entries=solve is nearest_unitary)
            want, got = solve(u), solve(u * 2.0**k)
            want, got = (want, got) if isinstance(want, list) else ([want], [got])
            assert [p.det_sign for p in got] == [p.det_sign for p in want], (n, seed)
            assert max(np.max(np.abs(p.x - q.x)) for p, q in zip(got, want)) < 1e-14, (n, seed)


def _near_clustered(delta, scale, seed):
    """scale Q1 diag(1.3, 1.3 (1 - delta), 0.4) Q2^t, Q1 and Q2 random
    orthogonal: a relative gap delta, above GAP_TOL from delta = 2e-8."""
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    return scale * ((q1 * np.array([1.3, 1.3 * (1.0 - delta), 0.4])) @ q2.T)


@pytest.mark.parametrize("scale", [1e-3, 1e-6])
@pytest.mark.parametrize("delta", [2e-8, 1e-7, 1e-6])
@pytest.mark.parametrize("solve", [enumerate_orthogonal_critical, sl_critical_points], ids=lambda s: s.__name__)
def test_near_clustered_accepted_at_every_scale(solve, delta, scale):
    # The gap rule is GAP_TOL sigma_1, so a gap the solvers accept at
    # scale 1 is accepted at every scale, with all 8 points certified.
    for seed in range(10):
        u = _near_clustered(delta, scale, seed)
        points = solve(u)
        assert len(points) == 8, seed
        assert all(p.residual < 1e-9 * (1.0 + frobenius_norm(u)) for p in points), seed


def _graded_inputs(complex_entries=False, smallest=1e-5):
    """20 draws of u = Q1 diag(1, ..., smallest) Q2^* (geometric singular
    values) for random orthogonal (unitary) Q1, Q2: by default a condition
    number of 1e5, squared to 1e10 by the Gram matrix u^* u."""
    rng = np.random.default_rng(0)
    sigma = np.geomspace(1.0, smallest, 4)
    out = []
    for _ in range(20):
        factors = []
        for _ in range(2):
            a = rng.standard_normal((4, 4))
            if complex_entries:
                a = a + 1j * rng.standard_normal((4, 4))
            factors.append(np.linalg.qr(a)[0])
        q1, q2 = factors
        out.append((q1 * sigma) @ np.conj(q2).T)
    return out


class TestIllConditionedInput:
    def test_orthogonal_points_accurate(self):
        for u in _graded_inputs():
            points = enumerate_orthogonal_critical(u)
            assert len(points) == 16
            assert max(p.residual for p in points) < 1e-12

    def test_unitary_points_accurate(self):
        for u in _graded_inputs(complex_entries=True):
            points = enumerate_unitary_critical(u)
            assert len(points) == 16
            assert max(p.residual for p in points) < 1e-12

    def test_small_separated_singular_values_accepted(self):
        # sigma = (1, 1e-2, 1e-4, 1e-6): the squared values 1e-8 and 1e-12
        # lie within 1e-8 of each other, but sigma itself is a factor 100
        # apart, so the clustered-spectrum rule must not refuse it.
        for u in _graded_inputs(smallest=1e-6):
            points = enumerate_orthogonal_critical(u)
            assert len(points) == 16
            assert max(p.residual for p in points) < 1e-12


def _clustered_inputs(complex_entries=False, count=40):
    """count inputs Q1 diag(sigma) Q2^* with Q1, Q2 Haar orthogonal
    (unitary), n = 2..6 and sigma drawn from fewer distinct values than n,
    so every sigma repeats a value; one distinct value gives a scalar
    multiple of an isometry.  Returns (u, sigma descending) pairs."""
    rng = np.random.default_rng(5)
    out = []
    for i in range(count):
        n = 2 + i % 5
        values = rng.uniform(0.2, 3.0, size=rng.integers(1, n))
        sigma = np.sort(rng.choice(values, n))[::-1]
        frames = []
        for _ in range(2):
            a = rng.standard_normal((n, n))
            if complex_entries:
                a = a + 1j * rng.standard_normal((n, n))
            q, r = np.linalg.qr(a)
            frames.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
        q1, q2 = frames
        out.append(((q1 * sigma) @ np.conj(q2).T, sigma))
    return out


class TestNearestWhereUnique:
    # The nearest point needs no gap between singular values: the polar
    # factor is the unique nearest point of every nonsingular u.  Only SO
    # at det u < 0 needs sigma_(n-1) > sigma_n.
    @pytest.mark.parametrize("solve", [nearest_orthogonal, nearest_unitary], ids=lambda s: s.__name__)
    def test_polar_factor_of_clustered_input(self, solve):
        complex_entries = solve is nearest_unitary
        for u, sigma in _clustered_inputs(complex_entries):
            p = solve(u)
            s = np.conj(p.x).T @ u
            assert np.abs(s - np.conj(s).T).max() < 1e-13 * sigma[0]
            assert np.linalg.eigvalsh(0.5 * (s + np.conj(s).T)).min() > 0.0
            # The real metric doubles a complex squared distance.
            want = (2.0 if complex_entries else 1.0) * np.sum((sigma - 1.0) ** 2)
            assert p.distance_sq == pytest.approx(want, rel=1e-10, abs=1e-13)
            assert p.residual < 1e-13 * (1.0 + frobenius_norm(u))

    def test_special_orthogonal_of_clustered_input(self):
        seen = {"refused": 0, "det u > 0": 0, "det u < 0": 0}
        for u, sigma in _clustered_inputs():
            if np.linalg.det(u) < 0.0 and sigma[-2] == sigma[-1]:
                with pytest.raises(DegeneracyError, match="det u < 0"):
                    nearest_special_orthogonal(u)
                seen["refused"] += 1
                continue
            p = nearest_special_orthogonal(u)
            s = p.x.T @ u
            assert p.det_sign == 1
            assert np.abs(s - s.T).max() < 1e-13 * sigma[0]
            # x^t u has eigenvalues sigma, with sigma_n negated at det u < 0.
            flip = np.where(np.arange(len(sigma)) == len(sigma) - 1, np.sign(np.linalg.det(u)), 1.0)
            assert np.allclose(np.sort(np.linalg.eigvalsh(0.5 * (s + s.T))), np.sort(flip * sigma), rtol=0, atol=1e-13)
            want = np.sum((sigma - flip) ** 2)
            assert p.distance_sq == pytest.approx(want, rel=1e-10, abs=1e-13)
            assert p.residual < 1e-13 * (1.0 + frobenius_norm(u))
            seen["det u < 0" if np.linalg.det(u) < 0.0 else "det u > 0"] += 1
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_multiples_of_the_identity_give_the_identity(self, n):
        for solve in (nearest_orthogonal, nearest_special_orthogonal, nearest_unitary):
            for u in (np.eye(n), 3.0 * np.eye(n)):
                p = solve(u.astype(complex) if solve is nearest_unitary else u)
                assert np.array_equal(p.x, np.eye(n)), solve.__name__

    def test_special_orthogonal_refuses_minus_identity(self):
        # Every rotation by pi about an axis is nearest to -I_3.
        assert np.array_equal(nearest_orthogonal(-np.eye(3)).x, -np.eye(3))
        with pytest.raises(DegeneracyError):
            nearest_special_orthogonal(-np.eye(3))


class TestNearestSpecialOrthogonal:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_rotation_scan(self, seed):
        u = random_general(2, 50 + seed)
        point = nearest_special_orthogonal(u)
        assert point.det_sign == 1
        assert point.distance_sq == pytest.approx(_brute_min_so2(u), abs=1e-6)

    def test_negative_determinant_input(self):
        # Data on the wrong side of the group: the best rotation is still
        # found and it beats every enumerated rotation.
        u = np.array([[0.0, 2.0], [1.0, 0.0]])  # det = -2
        point = nearest_special_orthogonal(u)
        assert point.det_sign == 1
        rotations = [p for p in enumerate_orthogonal_critical(u) if p.det_sign == 1]
        assert point.distance_sq <= min(p.distance_sq for p in rotations) + 1e-12

    def test_beats_no_orthogonal_point_when_det_positive(self):
        u = random_general(3, 57)
        if np.linalg.det(u) < 0:
            u = -u
        same = nearest_orthogonal(u)
        special = nearest_special_orthogonal(u)
        assert special.distance_sq == pytest.approx(same.distance_sq, abs=1e-12)


def _with_row_negated(u):
    v = u.copy()
    v[0] = -v[0]
    return v


class TestSpecialOrthogonalSelection:
    # SO's points are chosen from the sign table before the lift, by the
    # frame's det sign; they must be the det +1 half of O's points, bit for
    # bit and in O's order, on both sides of det u = 0.
    @pytest.mark.parametrize("n", range(1, 9))
    def test_enumeration_is_the_det_plus_half_of_orthogonal_bitwise(self, n):
        for seed in range(6):
            for u in (random_general(n, seed), _with_row_negated(random_general(n, seed))):
                want = [p for p in enumerate_orthogonal_critical(u) if p.det_sign == 1]
                got = enumerate_special_orthogonal_critical(u)
                assert len(got) == len(want) == 2 ** (n - 1)
                for g, w in zip(got, want):
                    assert np.array_equal(g.x, w.x)
                    assert (g.distance_sq, g.det_sign) == (w.distance_sq, w.det_sign)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_nearest_is_the_first_enumerated_point_bitwise(self, n):
        for seed in range(6):
            for u in (random_general(n, seed), _with_row_negated(random_general(n, seed))):
                first = enumerate_special_orthogonal_critical(u)[0]
                best = nearest_special_orthogonal(u)
                assert np.array_equal(best.x, first.x)
                assert (best.distance_sq, best.det_sign, best.residual) == (
                    first.distance_sq,
                    first.det_sign,
                    first.residual,
                )

    def test_residual_includes_the_det_defect(self):
        u = random_general(4, 3)
        for p in enumerate_special_orthogonal_critical(u):
            assert p.residual < 1e-12
            assert p.residual >= abs(np.linalg.det(p.x) - 1.0)


class TestUnitary:
    def test_scalar_closed_form(self):
        z = 3.0 - 4.0j  # |z| = 5
        u = np.array([[z]])
        points = enumerate_unitary_critical(u)
        assert len(points) == 2
        # Phase-aligned point at distance (|z|-1)^2, antipode at (|z|+1)^2,
        # both doubled by the real embedding metric.
        dists = sorted(p.distance_sq for p in points)
        assert dists[0] == pytest.approx(2.0 * 16.0)
        assert dists[1] == pytest.approx(2.0 * 36.0)
        best = nearest_unitary(u)
        assert np.allclose(best.x, [[z / 5.0]], atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_census_count_and_unitarity(self, m):
        u = random_general(m, 60 + m, complex_entries=True)
        points = enumerate_unitary_critical(u)
        assert len(points) == 2**m
        for p in points:
            gram = np.conj(p.x).T @ p.x
            assert frobenius_norm(gram - np.eye(m)) < 1e-9
            assert p.residual < 1e-9

    def test_nearest_unitary_minimal(self):
        u = random_general(2, 66, complex_entries=True)
        best = nearest_unitary(u).distance_sq
        dists = [p.distance_sq for p in enumerate_unitary_critical(u)]
        assert best == pytest.approx(min(dists), abs=1e-12)


class _SignTableReached(Exception):
    pass


def _reach_sign_table(n):
    raise _SignTableReached(n)


def _svd_must_not_run(*args, **kwargs):
    raise AssertionError("SVD ran for a refused size")


class TestEnumerationLimits:
    # The 2^n-point stacks grow as 2^n n^2, so sizes above the limits are
    # refused before the SVD.  At the limit the call passes the check and
    # reaches the sign table, which here stops it before any point is built.
    @pytest.mark.parametrize(
        "enumerate_points,limit,complex_entries",
        [
            (enumerate_orthogonal_critical, orthonear._MAX_ORTHOGONAL_N, False),
            (enumerate_special_orthogonal_critical, orthonear._MAX_ORTHOGONAL_N, False),
            (enumerate_unitary_critical, orthonear._MAX_UNITARY_M, True),
        ],
        ids=["orthogonal", "special_orthogonal", "unitary"],
    )
    def test_refused_above_limit_before_svd(self, monkeypatch, enumerate_points, limit, complex_entries):
        monkeypatch.setattr(orthonear, "_sign_table", _reach_sign_table)
        with pytest.raises(_SignTableReached):
            enumerate_points(random_general(limit, 0, complex_entries=complex_entries))
        monkeypatch.setattr(orthonear, "_svd_frame", _svd_must_not_run)
        with pytest.raises(UnsupportedError, match=f"supports n <= {limit}"):
            enumerate_points(random_general(limit + 1, 0, complex_entries=complex_entries))


class TestCriticalIsGPerp:
    # On O, SO and U, x^t (u - x) is orthogonal to g exactly when x^-1 u =
    # x^t u is symmetric (Hermitian), which is what critical_residual measures.
    def test_orthogonal_point_gives_symmetric_factor(self):
        u = random_general(3, 70)
        point = nearest_orthogonal(u)
        s = point.x.T @ u
        assert frobenius_norm(s - s.T) < 1e-10
        assert critical_residual(point.x, u, GroupSpec("orthogonal", 3)) < 1e-10

    def test_generic_group_element_not_in_gperp(self):
        u = random_general(2, 71)
        # x^-1 u = u itself here, and a generic u is not symmetric.
        assert frobenius_norm(u - u.T) > 1e-3
        assert critical_residual(np.eye(2), u, GroupSpec("orthogonal", 2)) > 1e-3
