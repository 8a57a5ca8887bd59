"""End-to-end acceptance checks, one test per criterion.

Each test records a one-line verdict that the terminal summary hook prints
after the run, so a plain pytest invocation shows the per-criterion results.
"""

import numpy as np

from groupnear.critsearch import GroupSpec, lie_basis, multistart_census
from groupnear.matcore import frobenius_norm, random_general, sym_eig
from groupnear.orthonear import (
    enumerate_orthogonal_critical,
    enumerate_unitary_critical,
    nearest_orthogonal,
    nearest_unitary,
)
from groupnear.polyres import chain_degree, resultant_chain
from groupnear.slnear import sl_critical_points, sl_ed_degree
from groupnear.torused import WeightSet, bkk_bound, random_rank1_coefficients, torus_critical_count_rank1


def _match_sets(xs, ys, tol):
    """Greedy mutual matching of two matrix lists at Frobenius tolerance."""
    if len(xs) != len(ys):
        return False
    used = [False] * len(ys)
    for x in xs:
        hit = None
        for j, y in enumerate(ys):
            if not used[j] and frobenius_norm(x - y) < tol:
                hit = j
                break
        if hit is None:
            return False
        used[hit] = True
    return True


def test_criterion_1_orthogonal_census_counts(verdict):
    for n in (2, 3, 4, 5, 6):
        for seed in range(20):
            u = random_general(n, seed)
            points = enumerate_orthogonal_critical(u)
            assert len(points) == 2**n
            assert all(p.residual < 1e-7 for p in points)
            assert sum(1 for p in points if p.det_sign == 1) == 2 ** (n - 1)
    verdict("[criterion 1] PASS orthogonal censuses: 2^n points, half det +1, n = 2..6 x 20 seeds")


def test_criterion_2_orthogonal_minimizer_and_polar(verdict):
    for seed in range(100):
        u = random_general(4, seed)
        best = nearest_orthogonal(u)
        for p in enumerate_orthogonal_critical(u):
            assert best.distance_sq <= p.distance_sq + 1e-9
        # The minimizer is the polar factor: u = x * sqrt(u^T u).
        e = sym_eig(u.T @ u)
        root = (e.q * np.sqrt(e.values)) @ e.q.T
        assert frobenius_norm(best.x @ root - u) <= 1e-10 * frobenius_norm(u)
    verdict("[criterion 2] PASS orthogonal minimizer is the polar factor, 100 seeds at n = 4")


def test_criterion_3_unitary_census(verdict):
    for m in (1, 2, 3):
        for seed in range(10):
            u = random_general(m, seed, complex_entries=True)
            points = enumerate_unitary_critical(u)
            assert len(points) == 2**m
            for p in points:
                gram = np.conj(p.x).T @ p.x
                assert frobenius_norm(gram - np.eye(m)) < 1e-7
            best = nearest_unitary(u)
            assert best.distance_sq <= min(p.distance_sq for p in points) + 1e-9
    verdict("[criterion 3] PASS unitary censuses: 2^m points, phase-aligned point minimal, m = 1..3 x 10 seeds")


def test_criterion_4_multiplier_counts_and_degrees(verdict):
    # Every seed, no exceptions: 20 seeds for n = 1, 2, 3 and 6 at n = 4.
    expected = {1: (2, 20), 2: (8, 20), 3: (24, 20), 4: (64, 6)}
    for n, (want, seeds) in expected.items():
        for seed in range(seeds):
            u = random_general(n, seed)
            mu = np.sort(sym_eig(u.T @ u).values)[::-1]
            assert resultant_chain(mu).degree == chain_degree(n) == want
            assert sl_ed_degree(n, seed) == want, f"n={n}, seed {seed}"
    verdict("[criterion 4] PASS multiplier counts 2/8/24 on 20/20 seeds and 64 on 6/6 seeds at n = 4; degrees n*2^n")


def test_criterion_5_determinant_one_solution_identities(verdict):
    cases = [(1, s) for s in range(5)] + [(2, s) for s in range(5)] + [(3, s) for s in range(5)] + [(4, 0)]
    total = 0
    for n, seed in cases:
        u = random_general(n, seed)
        eig = sym_eig(u.T @ u)
        mu = np.sort(eig.values)[::-1]
        for sol in sl_critical_points(u):
            # lambda_i read off the point: x^t x in the eigenbasis of u^t u.
            s = eig.q.T @ (sol.x.T @ sol.x) @ eig.q
            lam = np.diag(s)
            assert frobenius_norm(s - np.diag(lam)) < 1e-7 * (1.0 + frobenius_norm(u) ** 2)
            c = sol.c
            for m_i, l_i in zip(mu, lam):
                assert abs(c * c + (2 * c - m_i) * l_i + l_i * l_i) < 1e-7 * (1.0 + m_i)
                assert l_i > 0.0
            assert abs(np.prod(lam) - 1.0) < 1e-7
            assert abs(abs(np.linalg.det(sol.x)) - 1.0) < 1e-7
            gram = sol.x.T @ (u - sol.x)
            assert frobenius_norm(gram - c * np.eye(n)) < 1e-7 * (1.0 + frobenius_norm(u))
            total += 1
    verdict(f"[criterion 5] PASS all {total} determinant-one solutions satisfy the critical system")


def test_criterion_6_independent_solver_agreement(verdict):
    for n in (2, 3):
        for seed in range(10):
            u = random_general(n, seed)
            pipeline = sl_critical_points(u)
            census = multistart_census(u, GroupSpec("sl_pm", n), starts=2000, seed=seed)
            tol = 1e-5 * (1.0 + frobenius_norm(u))
            assert _match_sets([s.x for s in pipeline], [p.x for p in census], tol), (
                f"n={n} seed={seed}: elimination and multistart censuses disagree"
            )
    u = random_general(3, 0)
    closed = enumerate_orthogonal_critical(u)
    census = multistart_census(u, GroupSpec("orthogonal", 3), starts=2000, seed=0)
    tol = 1e-5 * (1.0 + frobenius_norm(u))
    assert _match_sets([p.x for p in closed], [p.x for p in census], tol)
    verdict("[criterion 6] PASS elimination, closed-form, and multistart censuses agree point-for-point")


def test_criterion_7_torus_counts_match_volume(verdict):
    for d in (1, 3, 5, 7):
        w = WeightSet(1, tuple((k,) for k in range(-d, d + 1, 2)), (1,) * (d + 1))
        assert bkk_bound(w) == 2 * d
        for seed in range(10):
            assert torus_critical_count_rank1(w, random_rank1_coefficients(w, seed)) == 2 * d
    for d in (2, 4):
        w = WeightSet(1, tuple((k,) for k in range(-d, d + 1, 2)), (1,) * (d + 1), lattice_index=2)
        for seed in range(10):
            assert torus_critical_count_rank1(w, random_rank1_coefficients(w, seed)) == d
    verdict("[criterion 7] PASS torus counts: 2d for odd d, d on the doubled lattice, all equal to the volume bound")


def test_criterion_8_symplectic(verdict):
    sp = np.stack([b.ravel() for b in lie_basis(GroupSpec("symplectic", 2))])
    sl = np.stack([b.ravel() for b in lie_basis(GroupSpec("sl", 2))])
    assert np.linalg.matrix_rank(np.vstack([sp, sl])) == 3
    for seed in range(5):
        u = random_general(2, seed)
        a = multistart_census(u, GroupSpec("symplectic", 2), starts=1000, seed=seed)
        b = multistart_census(u, GroupSpec("sl", 2), starts=1000, seed=seed)
        tol = 1e-5 * (1.0 + frobenius_norm(u))
        assert _match_sets([p.x for p in a], [p.x for p in b], tol)
    u4 = random_general(4, 0)
    census = multistart_census(u4, GroupSpec("symplectic", 4), starts=2000, seed=0)
    assert 1 <= len(census) <= 24
    assert all(p.residual < 1e-9 for p in census)
    verdict(f"[criterion 8] PASS symplectic: size-2 census equals the determinant-one census; size-4 found {len(census)} points within the bound of 24")


def test_criterion_9_smallest_multiplier_survey(verdict):
    fractions = {}
    for n in (2, 3):
        holds = 0
        for seed in range(50):
            points = sl_critical_points(random_general(n, 1000 + seed))
            # points[0] is the minimizer; does it carry the smallest |c|?
            smallest = min(points, key=lambda p: abs(p.c))
            holds += int(abs(smallest.c - points[0].c) <= 1e-7 * (1.0 + abs(points[0].c)))
        fractions[n] = holds / 50.0
    verdict(
        "[criterion 9] PASS smallest-multiplier survey ran; minimizer uses the "
        f"smallest |c| root in fraction n=2: {fractions[2]:.2f}, n=3: {fractions[3]:.2f} of 50 seeds each"
    )
