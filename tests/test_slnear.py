"""Critical points over the determinant-one groups via elimination."""

import json

import numpy as np
import pytest

from groupnear import cli, slnear
from groupnear.critsearch import GroupSpec, critical_point_from
from groupnear.errors import ConditioningError, DegeneracyError, InputError, UnsupportedError
from groupnear.matcore import det, frobenius_norm, matrix_to_json, random_general, sym_eig
from groupnear.polyres import poly_roots, resultant_chain
from groupnear.slnear import (
    nearest_sl,
    sl_critical_points,
    sl_ed_degree,
    smallest_c_check,
)


def _check_solution(u, sol, tol=1e-7):
    """Every reported solution must satisfy the full critical system.

    The lambda_i are read off the point: x^t x is diagonal in the
    eigenbasis Q of u^t u, with lambda_i on the diagonal.
    """
    n = u.shape[0]
    eig = sym_eig(u.T @ u)
    mu = np.sort(eig.values)[::-1]
    s = eig.q.T @ (sol.x.T @ sol.x) @ eig.q
    lam = np.diag(s)
    assert frobenius_norm(s - np.diag(lam)) < tol * (1.0 + frobenius_norm(u) ** 2)
    c = sol.c
    for m_i, l_i in zip(mu, lam):
        assert abs(c * c + (2 * c - m_i) * l_i + l_i * l_i) < tol * (1.0 + m_i)
        assert l_i > 0.0
    assert abs(np.prod(lam) - 1.0) < tol
    assert abs(abs(det(sol.x)) - 1.0) < tol
    gram = sol.x.T @ (u - sol.x)
    assert frobenius_norm(gram - c * np.eye(n)) < tol * (1.0 + frobenius_norm(u))


class TestOneByOne:
    def test_two_points_closed_form(self):
        # x = 1: c = 3 - 1 = 2; x = -1: c = -(3 + 1) = -4.
        sols = sl_critical_points(np.array([[3.0]]))
        assert len(sols) == 2
        assert sols[0].c == pytest.approx(2.0)
        assert sols[0].x[0, 0] == pytest.approx(1.0)
        assert sols[0].distance_sq == pytest.approx(4.0)
        assert sols[1].c == pytest.approx(-4.0)
        assert sols[1].x[0, 0] == pytest.approx(-1.0)
        assert sols[1].distance_sq == pytest.approx(16.0)

    def test_point_on_the_fold(self):
        # u = 2: x = 1 has c = 1 = sigma^2 / 4, where z^2 - 2z + c has a
        # double root; it is the nearest point and must not be lost.
        sols = sl_critical_points(np.array([[2.0]]))
        got = [(s.x[0, 0], s.c, s.distance_sq) for s in sols]
        assert got == [pytest.approx((1.0, 1.0, 1.0)), pytest.approx((-1.0, -3.0, 9.0))]


class TestDiagonalTwoByTwo:
    def test_input_on_group_is_fixed(self):
        u = np.diag([2.0, 0.5])  # det 1 already
        best = nearest_sl(u, "pm")
        assert best.distance_sq < 1e-15
        assert abs(best.c) < 1e-10
        assert np.allclose(best.x, u, atol=1e-8)

    def test_four_real_points(self):
        sols = sl_critical_points(np.diag([3.0, 1.0]))
        assert len(sols) == 4
        assert [s.det_sign for s in sols] == [1, -1, -1, 1]
        want_c = [0.225072109458952, -0.420848233373475, -1.81521974412631, -2.93849109202397]
        want_d = [0.438742638783603, 1.75793072577526, 13.2420692742247, 19.4960947029766]
        for s, c, d in zip(sols, want_c, want_d):
            assert s.c == pytest.approx(c, abs=1e-9)
            assert s.distance_sq == pytest.approx(d, abs=1e-9)

    def test_nearest_point_on_the_fold(self):
        # sigma = (17/8, 1): at c = 1/4 = sigma_2^2 / 4, z = (2, 1/2) has
        # product 1 with z_2 a double root.
        sols = sl_critical_points(np.diag([2.125, 1.0]))
        assert len(sols) == 4
        assert (sols[0].c, sols[0].distance_sq) == pytest.approx((0.25, 0.265625))
        assert np.allclose(sols[0].x, np.diag([2.0, 0.5]), atol=1e-15)

    def test_negative_determinant_side(self):
        u = np.diag([-3.0, 1.0])
        pm = nearest_sl(u, "pm")
        plus = nearest_sl(u, "plus")
        assert pm.det_sign == -1
        assert pm.distance_sq == pytest.approx(0.438742638783603, abs=1e-9)
        assert plus.det_sign == 1
        assert plus.distance_sq == pytest.approx(1.75793072577526, abs=1e-9)
        assert plus.distance_sq > pm.distance_sq


class TestSolutionSystem:
    # (3, 150): the interpolated eliminant has spurious real roots whose
    # Newton correction wanders off; they must be skipped, not reported.
    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 150)])
    def test_full_system_satisfied(self, n, seed):
        u = random_general(n, seed)
        sols = sl_critical_points(u)
        assert sols
        for sol in sols:
            _check_solution(u, sol)

    def test_sorted_by_distance(self):
        sols = sl_critical_points(random_general(3, 2))
        dists = [s.distance_sq for s in sols]
        assert dists == sorted(dists)

    def test_four_by_four(self):
        u = random_general(4, 0)
        sols = sl_critical_points(u)
        assert sols
        for sol in sols:
            _check_solution(u, sol)

    # Every real point must come back; seed 4 has two real multipliers
    # 1.5e-4 apart.
    @pytest.mark.parametrize("seed", [4, 20])
    def test_four_by_four_all_sixteen_points(self, seed):
        u = random_general(4, seed)
        sols = sl_critical_points(u)
        assert len(sols) == 16
        for sol in sols:
            _check_solution(u, sol)

    def test_too_large_rejected(self):
        with pytest.raises(UnsupportedError):
            sl_critical_points(np.eye(6))

    def test_singular_input_rejected(self):
        u = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises((DegeneracyError, InputError)):
            sl_critical_points(u)


def _fields(p):
    return (p.x.tobytes(), p.distance_sq, p.det_sign, p.residual, p.c)


class TestCertifiedPoints:
    # The points come out of one batch certification on SL^pm; each must
    # equal the one-point certificate the CLI used to compute for it.
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_points_equal_one_point_certificates_bitwise(self, n, seed):
        u = random_general(n, seed)
        points = sl_critical_points(u)
        for p in points:
            assert _fields(p) == _fields(critical_point_from(p.x, u, GroupSpec("sl_pm", n), c=p.c))
            if p.det_sign == 1:
                assert _fields(p) == _fields(critical_point_from(p.x, u, GroupSpec("sl", n), c=p.c))
        plus = nearest_sl(u, "plus")
        assert _fields(plus) == _fields(critical_point_from(plus.x, u, GroupSpec("sl", n), c=plus.c))
        assert [(p.distance_sq, p.c) for p in points] == sorted((p.distance_sq, p.c) for p in points)

    def test_every_point_carries_its_residual(self):
        for p in sl_critical_points(random_general(3, 0)):
            assert p.c is not None and p.residual < 1e-9


def _located_roots(u):
    """sigma and the real roots of the interpolated chain, as
    sl_critical_points locates them."""
    mu = sym_eig(u.T @ u).values
    roots = poly_roots(resultant_chain(mu))
    real = np.abs(roots.imag) < slnear._REAL_IM_TOL * (1.0 + np.abs(roots.real))
    return np.sqrt(mu), roots.real[real]


class TestSharpenRoots:
    # The located roots are sharpened by Newton in c on the branch
    # equation sum log |z_i(c)| = 0, all roots on all branches in one batch.
    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 5), (3, 0), (3, 150), (3, 122)])
    def test_batch_equals_each_root_alone_bitwise(self, n, seed):
        sigma, roots = _located_roots(random_general(n, seed))
        alone = [slnear._branch_newton(sigma, roots[i : i + 1]) for i in range(roots.size)]
        for order in (alone, alone[::-1]):
            c_alone = np.concatenate([c for c, _ in order])
            z_alone = np.concatenate([z for _, z in order])
            c, z = slnear._branch_newton(sigma, roots if order is alone else roots[::-1])
            assert c.tobytes() == c_alone.tobytes() and z.tobytes() == z_alone.tobytes()
        # Every refined root solves its quadratics with |prod z| = 1.
        assert np.all(np.abs(z * z - sigma * z + c[:, None]) < 1e-12 * (1.0 + sigma * sigma))
        assert np.all(np.abs(np.sum(np.log(np.abs(z)), axis=1)) < 1e-12)

    def test_root_stalled_at_the_clamp_is_dropped(self):
        # sigma_2 is chosen so that the all-larger branch has h = 1e-5 at the
        # clamp just below sigma_3^2 / 4.  There h' is about 2e8, so Newton
        # stalls after a 5e-14 step; a small step alone must not count as
        # convergence while |prod z| != 1.
        cap = 0.25 * 0.1**2 * (1.0 - 1e-12)
        big, _, _ = slnear._quadratic_roots(np.array([5.0, 0.1]), np.array([cap]))
        z2 = np.exp(1e-5) / (big[0, 0] * big[0, 1])
        sigma = np.array([5.0, z2 + cap / z2, 0.1])
        c, z = slnear._branch_newton(sigma, np.array([1.0]))
        assert c.size > 0 and np.all(c < cap)
        assert np.all(np.abs(np.sum(np.log(np.abs(z)), axis=1)) < 1e-12)

    def test_spurious_roots_rejected(self):
        # n = 3, seed 150: the fit has 10 real roots, the input 8 real
        # critical points; the two extra roots do not add points.
        u = random_general(3, 150)
        _, roots = _located_roots(u)
        assert roots.size == 10 and len(sl_critical_points(u)) == 8

    def test_no_roots_no_work(self):
        c, z = slnear._branch_newton(np.array([3.0, 2.0]), np.array([]))
        assert c.shape == (0,) and z.shape == (0, 2)

    def test_no_real_root_is_degenerate(self, monkeypatch):
        monkeypatch.setattr(slnear, "poly_roots", lambda p: np.array([], dtype=complex))
        with pytest.raises(DegeneracyError, match="no real critical point"):
            sl_critical_points(random_general(3, 0))


class TestOutOfRange:
    # The spectrum of 1e14 u sits near 1e28, so the chain's determinants
    # leave the double range: a typed error, not a bare OverflowError.
    @pytest.mark.parametrize("scale", [1e14, 1e17, 1e20])
    def test_typed_error(self, scale):
        with pytest.raises(ConditioningError):
            sl_critical_points(scale * random_general(3, 0))

    def test_cli_exits_degenerate(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(matrix_to_json(1e14 * random_general(3, 1))))
        assert cli.main(["critical", "sl-pm", str(path)]) == cli.EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "double-precision range" in err


class TestKnownChainDefects:
    # Defects of the interpolated chain, pinned so that a better multiplier
    # solve flips them.  A 2000-start sl_pm census finds 8 real critical
    # points for each of these n = 3 inputs.
    @pytest.mark.xfail(strict=True, reason="chain fit loses real roots")
    @pytest.mark.parametrize("seed", [561, 1094])
    def test_all_eight_points_recovered(self, seed):
        assert len(sl_critical_points(random_general(3, seed))) == 8

    # Here the chain loses the same roots, but Newton on another branch of
    # a neighbouring root reaches the missing points.
    @pytest.mark.parametrize("seed", [122, 351])
    def test_missed_roots_recovered_on_other_branches(self, seed):
        u = random_general(3, seed)
        points = sl_critical_points(u)
        assert len(points) == 8
        for p in points:
            _check_solution(u, p)

    # SL^pm is closed, so a nearest point always exists.  At scale 100 the
    # chain's real roots are mostly interpolation noise; refined on the
    # branch equation they still reach genuine critical points.
    @pytest.mark.parametrize("seed", range(5))
    def test_scaled_input_has_a_nearest_point(self, seed):
        u = 100.0 * random_general(3, seed)
        points = sl_critical_points(u)
        assert points
        for p in points:
            assert p.residual < 1e-9 * (1.0 + frobenius_norm(u))

    # For these inputs the chain places the root of the multiplier c far
    # from its value, nearest the zero of another sign branch; Newton from
    # every branch must still reach it.
    @pytest.mark.parametrize("scale,c", [(5.0, -0.0742521350776179), (100.0, -9.376391865498164)])
    def test_scaled_seed_seven_keeps_its_point(self, scale, c):
        u = scale * random_general(3, 7)
        points = sl_critical_points(u)
        assert any(abs(p.c - c) < 1e-9 * (1.0 + abs(c)) for p in points)
        for p in points:
            assert p.residual < 1e-9 * (1.0 + frobenius_norm(u))


class TestFiveRefused:
    # n = 5 (a degree-160 chain) is not supported; every entry point must
    # refuse it before the Gram spectrum or the chain is computed.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: sl_critical_points(random_general(5, 0)),
            lambda: nearest_sl(random_general(5, 0)),
            lambda: smallest_c_check(random_general(5, 0)),
            lambda: sl_ed_degree(5, 0),
        ],
        ids=["sl_critical_points", "nearest_sl", "smallest_c_check", "sl_ed_degree"],
    )
    def test_refused_before_any_work(self, monkeypatch, call):
        def heavy(*args, **kwargs):
            raise AssertionError("heavy work started before the size check")

        monkeypatch.setattr(slnear, "sym_eig", heavy)
        monkeypatch.setattr(slnear, "resultant_chain", heavy)
        with pytest.raises(UnsupportedError):
            call()


class TestNearestSL:
    def test_component_names(self):
        u = random_general(2, 4)
        with pytest.raises(InputError):
            nearest_sl(u, "weird")

    def test_plus_component_determinant(self):
        for seed in range(5):
            best = nearest_sl(random_general(2, seed), "plus")
            assert best.det_sign == 1

    def test_pm_never_worse_than_plus(self):
        for seed in range(5):
            u = random_general(3, 30 + seed)
            pm = nearest_sl(u, "pm")
            plus = nearest_sl(u, "plus")
            assert pm.distance_sq <= plus.distance_sq + 1e-12


class TestCounting:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 8)])
    def test_distinct_multiplier_count(self, n, expected):
        assert sl_ed_degree(n, 0) == expected

    def test_rejects_bad_size(self):
        with pytest.raises(InputError):
            sl_ed_degree(0, 1)


class TestSmallestC:
    def test_returns_fields_and_holds(self):
        out = smallest_c_check(random_general(2, 7))
        assert set(out) == {"holds", "c_min_abs", "c_of_minimizer"}
        assert out["holds"] in (True, False)
        assert out["c_min_abs"] <= abs(out["c_of_minimizer"]) + 1e-12
