"""Critical points over the determinant-one groups via elimination."""

import json

import numpy as np
import pytest

from groupnear import cli, slnear
from groupnear.critsearch import GroupSpec, critical_point_from, multistart_census
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


class TestThreeByThree:
    def test_nearest_point_on_the_fold(self):
        # sigma = (17/8, 5/4, 1): at c = 1/4 = sigma_3^2 / 4, z = (2, 1, 1/2)
        # has product 1 with z_3 a double root, in a rotated frame.
        rng = np.random.default_rng(3)
        q1, q2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
        points = sl_critical_points(q1 @ np.diag([2.125, 1.25, 1.0]) @ q2)
        assert (points[0].c, points[0].distance_sq) == pytest.approx((0.25, 0.328125))
        assert np.allclose(points[0].x, q1 @ np.diag([2.0, 1.0, 0.5]) @ q2, atol=1e-14)

    # z_i^+ z_i^- = c, so on |c| = 1 the sign vectors eps and -eps both give
    # |z_1 z_2 z_3| = 1: two distinct points share one multiplier c.
    @pytest.mark.parametrize(
        "sigma,c,pair",
        [
            ([35 / 6, 8 / 3, 3 / 2], -1.0, ([6.0, -1 / 3, -1 / 2], [-1 / 6, 3.0, 2.0])),
            ([37 / 6, 10 / 3, 5 / 2], 1.0, ([6.0, 1 / 3, 1 / 2], [1 / 6, 3.0, 2.0])),
        ],
    )
    def test_two_points_share_one_multiplier(self, sigma, c, pair):
        u = np.diag(sigma)
        points = [p for p in sl_critical_points(u) if abs(p.c - c) < 1e-9]
        assert len(points) == 2
        for p, z in zip(sorted(points, key=lambda p: p.distance_sq), pair):
            assert np.allclose(p.x, np.diag(z), atol=1e-12)
            assert p.residual < 1e-9 * (1.0 + frobenius_norm(u))
            _check_solution(u, p)


class TestSolutionSystem:
    # (3, 150): the interpolated chain of earlier versions had spurious
    # real roots here; whatever the chain returns, every point reported
    # must solve the full system.
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

    # At scale 100 the size-4 chain stays inside the double range, and every
    # point it yields is certified.
    @pytest.mark.parametrize("seed", [0, 1])
    def test_four_by_four_at_scale_100(self, seed):
        u = 100.0 * random_general(4, seed)
        points = sl_critical_points(u)
        assert len(points) == 30
        for p in points:
            assert p.residual < 1e-9 * (1.0 + frobenius_norm(u))
        xs = np.array([p.x for p in points])
        gaps = np.sqrt(np.sum((xs[:, None] - xs[None, :]) ** 2, axis=(2, 3)))
        assert np.min(gaps[~np.eye(len(points), dtype=bool)]) > 9e-7

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
    """sigma and the real roots of the chain, as sl_critical_points
    locates them."""
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

    def test_point_next_to_the_fold(self):
        # sigma_2 is chosen so that the all-larger branch has h = 1e-5 at
        # c = sigma_3^2 / 4 (1 - 1e-12); its zero lies 2e-13 below the fold,
        # where h'(c) is about 2e8, and is the nearest point.  A 4000-start
        # census finds the same 8 points.
        cap = 0.25 * 0.1**2 * (1.0 - 1e-12)
        head = np.array([5.0, 0.1])
        big = 0.5 * (head + np.sqrt(head * head - 4.0 * cap))
        z2 = np.exp(1e-5) / (big[0] * big[1])
        sigma = np.array([5.0, z2 + cap / z2, 0.1])
        u = np.diag(sigma)
        points = sl_critical_points(u)
        assert len(points) == 8
        assert points[0].c == pytest.approx(0.0024999999997975, abs=1e-16)
        assert points[0].distance_sq == pytest.approx(0.00250069, abs=1e-8)
        census = multistart_census(u, GroupSpec("sl_pm", 3), starts=4000, seed=0)
        assert len(census.points) == 8
        for p in points:
            assert min(np.max(np.abs(p.x - q.x)) for q in census.points) < 1e-8
        # Every returned row solves the branch equation.
        c, z = slnear._branch_newton(sigma, _located_roots(u)[1])
        assert c.size > 0
        assert np.all(np.abs(np.sum(np.log(np.abs(z)), axis=1)) < 1e-12)

    def test_newton_stops_before_its_step_budget(self, monkeypatch):
        # Newton in s has no clamp to bounce against: every row settles or
        # is dropped before the 30-step budget runs out.  Each step and the
        # final lift evaluate _branch_values once.
        calls = []
        values = slnear._branch_values

        def counted(*args):
            calls[-1] += 1
            return values(*args)

        monkeypatch.setattr(slnear, "_branch_values", counted)
        for seed in range(11, 31):
            calls.append(0)
            sl_critical_points(random_general(3, seed))
        assert max(calls) - 1 < 30

    def test_spurious_roots_rejected(self, monkeypatch):
        # n = 3, seed 150: the chain has 8 real roots and the input 8 real
        # critical points.  Spurious real roots next to the true ones must
        # not add points: the same 8 come back.
        u = random_general(3, 150)
        _, roots = _located_roots(u)
        points = sl_critical_points(u)
        assert roots.size == 8 and len(points) == 8
        true_roots = slnear.poly_roots

        def with_spurious(p):
            z = true_roots(p)
            return np.concatenate([z, z.real * (1.0 + 1e-3) + 1e-3])

        monkeypatch.setattr(slnear, "poly_roots", with_spurious)
        noisy = sl_critical_points(u)
        assert len(noisy) == 8
        for p, q in zip(points, noisy):
            assert abs(p.c - q.c) < 1e-9 * (1.0 + abs(p.c))
            assert frobenius_norm(p.x - q.x) < 1e-9 * (1.0 + frobenius_norm(p.x))

    def test_no_roots_no_work(self):
        c, z = slnear._branch_newton(np.array([3.0, 2.0]), np.array([]))
        assert c.shape == (0,) and z.shape == (0, 2)

    def test_no_real_root_is_degenerate(self, monkeypatch):
        monkeypatch.setattr(slnear, "poly_roots", lambda p: np.array([], dtype=complex))
        with pytest.raises(DegeneracyError, match="no real critical point"):
            sl_critical_points(random_general(3, 0))


class TestOutOfRange:
    # The spectrum of 1e14 u sits near 1e28, so the chain leaves the double
    # range on its root enclosure: a typed error, not a bare OverflowError.
    @pytest.mark.parametrize("scale", [1e14, 1e17, 1e20])
    def test_typed_error(self, scale):
        with pytest.raises(ConditioningError):
            sl_critical_points(scale * random_general(3, 0))

    # At n = 4 the degree-64 chain leaves the range from smaller scales on;
    # a valid matrix is a conditioning refusal, never an input error.
    @pytest.mark.parametrize("scale", [1e11, 1e12])
    def test_four_by_four_typed_error(self, scale, tmp_path, capsys):
        u = scale * random_general(4, 0)
        with pytest.raises(ConditioningError, match="double-precision range"):
            sl_critical_points(u)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(matrix_to_json(u)))
        assert cli.main(["critical", "sl-pm", str(path)]) == cli.EXIT_DEGENERATE == 3
        assert "double-precision range" in capsys.readouterr().err

    def test_cli_exits_degenerate(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(matrix_to_json(1e14 * random_general(3, 1))))
        assert cli.main(["critical", "sl-pm", str(path)]) == cli.EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "double-precision range" in err


class TestKnownChainDefects:
    # Inputs where the interpolated chain of earlier versions lost real
    # roots.  A 2000-start sl_pm census finds 8 real critical points for
    # each of these n = 3 inputs.
    @pytest.mark.parametrize("seed", [561, 1094])
    def test_all_eight_points_recovered(self, seed):
        u = random_general(3, seed)
        points = sl_critical_points(u)
        assert len(points) == 8
        for p in points:
            _check_solution(u, p)

    # Here the interpolated chain lost the same roots, and Newton on
    # another branch of a neighbouring root reached the missing points.
    @pytest.mark.parametrize("seed", [122, 351])
    def test_missed_roots_recovered_on_other_branches(self, seed):
        u = random_general(3, seed)
        points = sl_critical_points(u)
        assert len(points) == 8
        for p in points:
            _check_solution(u, p)

    # SL^pm is closed, so a nearest point always exists.  At scale 100 the
    # chain's coefficients carry less accuracy than at unit scale; refined
    # on the branch equation its real roots still reach genuine critical
    # points.
    @pytest.mark.parametrize("seed", range(5))
    def test_scaled_input_has_a_nearest_point(self, seed):
        u = 100.0 * random_general(3, seed)
        points = sl_critical_points(u)
        assert points
        for p in points:
            assert p.residual < 1e-9 * (1.0 + frobenius_norm(u))

    # For these inputs the interpolated chain of earlier versions placed the
    # root of the multiplier c far from its value, nearest the zero of
    # another sign branch; the point must come back.
    @pytest.mark.parametrize("scale,c", [(5.0, -0.0742521350776179), (100.0, -9.376391865498164)])
    def test_scaled_seed_seven_keeps_its_point(self, scale, c):
        u = scale * random_general(3, 7)
        points = sl_critical_points(u)
        assert any(abs(p.c - c) < 1e-9 * (1.0 + abs(c)) for p in points)
        for p in points:
            assert p.residual < 1e-9 * (1.0 + frobenius_norm(u))

    # At scale 100 distinct points lie closer together than any x-space merge
    # radius safe at unit scale; counted by their multiplier c, none is lost.
    # For c < 0 each of the 2^n - 1 mixed sign branches has exactly one root
    # (here |det u| > 1); the points with c > 0 are counted independently of
    # the chain by the sign changes of h on a geometric grid of (0, sigma_n^2 / 4].
    def test_scaled_sets_have_every_point(self):
        total = 0
        for seed in range(20):
            u = 100.0 * random_general(3, seed)
            assert abs(det(u)) > 1.0
            points = sl_critical_points(u)
            assert sum(p.c < 0 for p in points) == 7
            assert sum(p.c > 0 for p in points) == _positive_c_count(np.linalg.svd(u, compute_uv=False))
            total += len(points)
        assert total == 268

    # On seed 0 these two points lie about 2e-4 from neighbouring points,
    # well inside the x-space merge radius 1e-5 (1 + |u|) = 1.9e-3.
    def test_scaled_seed_zero_keeps_its_pair(self):
        u = 100.0 * random_general(3, 0)
        points = sl_critical_points(u)
        for c in (-0.0034257033424587714, 0.009804258425639138):
            found = [p for p in points if abs(p.c - c) < 1e-9 * (1.0 + abs(c))]
            assert len(found) == 1
            assert found[0].residual < 1e-9 * (1.0 + frobenius_norm(u))


class TestRealCountLaws:
    # Real points of SL^pm by the sign of their multiplier c.  Proved: c < 0
    # holds one point per mixed sign vector eps (2^n - 1 of them) and one
    # more, on the all-plus branch, iff |det u| < 1; there is no point at
    # c > 0 when |det u| < 1, and an odd number when |det u| > 1 (the
    # all-plus path runs from -inf to log |det u|, each mixed path from
    # -inf to -inf).  Observed, not proved: at most 2^n - 1 at c > 0, since
    # each mixed path has held 0 or 2 roots there and the all-plus path 0
    # or 1.
    @pytest.mark.parametrize("scale", [0.3, 1.0, 5.0, 100.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counts_by_sign_of_c(self, n, scale):
        for seed in range(60):
            u = scale * random_general(n, seed)
            inside = abs(det(u)) < 1.0
            points = sl_critical_points(u)
            below = sum(p.c < 0 for p in points)
            above = sum(p.c > 0 for p in points)
            assert below == 2**n - 1 + inside, seed
            assert (above == 0) if inside else (above % 2 == 1), seed
            assert above <= 2**n - 1, seed


def _positive_c_count(sigma, m=20001):
    """Sign changes of h = sum log z_i^eps over all sign vectors eps on m
    geometric points of [1e-12, 1] sigma_n^2 / 4, where every z_i is real."""
    c = np.geomspace(1e-12, 1.0, m) * 0.25 * sigma[-1] ** 2
    root = np.sqrt(np.maximum(sigma * sigma - 4.0 * c[:, None], 0.0))
    big, small = 0.5 * (sigma + root), 2.0 * c[:, None] / (sigma + root)
    count = 0
    for eps in slnear._sign_table(sigma.size):
        h = np.sum(np.log(np.where(eps > 0, big, small)), axis=1)
        count += int(np.count_nonzero(np.diff(np.sign(h))))
    return count


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

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(InputError, match="seed must be a non-negative integer"):
            sl_ed_degree(3, seed)


class TestSmallestC:
    def test_returns_fields_and_holds(self):
        out = smallest_c_check(random_general(2, 7))
        assert set(out) == {"holds", "c_min_abs", "c_of_minimizer"}
        assert out["holds"] in (True, False)
        assert out["c_min_abs"] <= abs(out["c_of_minimizer"]) + 1e-12
