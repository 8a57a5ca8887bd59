"""Lie algebra bases, membership checks, and the multistart census."""

import numpy as np
import pytest

from groupnear.critsearch import (
    GroupSpec,
    _armijo,
    _merge_representatives,
    _orthonormal_basis,
    _System,
    critical_point_from,
    critical_residual,
    embed_complex,
    lie_basis,
    membership_violation,
    multistart_census,
    random_group_element,
    symplectic_form,
    unembed_complex,
)
from groupnear.errors import InputError
from groupnear.matcore import det, frobenius_norm, random_general
from groupnear.orthonear import enumerate_orthogonal_critical


class TestGroupSpec:
    def test_symplectic_needs_even_size(self):
        with pytest.raises(InputError):
            GroupSpec("symplectic", 3)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            GroupSpec("borel", 2)

    def test_unitary_embedding_even(self):
        with pytest.raises(InputError):
            GroupSpec("unitary_embedded", 3)

    def test_hashable_with_one_cached_basis(self):
        a, b = GroupSpec("symplectic", 4), GroupSpec("symplectic", 4)
        assert hash(a) == hash(b)
        assert _orthonormal_basis(a) is _orthonormal_basis(b)
        with pytest.raises(ValueError):
            _orthonormal_basis(a)[0, 0, 0] = 1.0


class TestLieBasis:
    @pytest.mark.parametrize(
        "kind,n,dim",
        [
            ("orthogonal", 2, 1),
            ("orthogonal", 4, 6),
            ("special_orthogonal", 3, 3),
            ("sl", 2, 3),
            ("sl", 3, 8),
            ("sl_pm", 2, 3),
            ("symplectic", 2, 3),
            ("symplectic", 4, 10),
            ("unitary_embedded", 2, 1),
            ("unitary_embedded", 4, 4),
        ],
    )
    def test_dimensions(self, kind, n, dim):
        assert len(lie_basis(GroupSpec(kind, n))) == dim

    def test_rank_matches_count(self):
        basis = lie_basis(GroupSpec("symplectic", 4))
        stacked = np.stack([b.ravel() for b in basis])
        assert np.linalg.matrix_rank(stacked) == len(basis)

    def test_smallest_symplectic_equals_traceless(self):
        # In size two the form-preserving algebra and the traceless
        # algebra are the same space.
        sp = np.stack([b.ravel() for b in lie_basis(GroupSpec("symplectic", 2))])
        sl = np.stack([b.ravel() for b in lie_basis(GroupSpec("sl", 2))])
        both = np.vstack([sp, sl])
        assert np.linalg.matrix_rank(both) == 3

    def test_traceless(self):
        for b in lie_basis(GroupSpec("sl", 3)):
            assert abs(np.trace(b)) < 1e-14


class TestSymplecticForm:
    def test_antisymmetric_and_square_to_minus_one(self):
        j = symplectic_form(4)
        assert np.array_equal(j, -j.T)
        assert np.array_equal(j @ j, -np.eye(4))


class TestEmbedding:
    def test_round_trip(self):
        z = random_general(2, 5, complex_entries=True)
        assert np.allclose(unembed_complex(embed_complex(z)), z)

    def test_multiplicative(self):
        a = random_general(2, 6, complex_entries=True)
        b = random_general(2, 7, complex_entries=True)
        assert np.allclose(embed_complex(a @ b), embed_complex(a) @ embed_complex(b))


class TestMembership:
    @pytest.mark.parametrize(
        "kind,n",
        [
            ("orthogonal", 3),
            ("special_orthogonal", 3),
            ("sl", 3),
            ("sl_pm", 2),
            ("symplectic", 4),
            ("unitary_embedded", 4),
        ],
    )
    def test_random_element_belongs(self, kind, n):
        g = GroupSpec(kind, n)
        x = random_group_element(g, 11)
        assert membership_violation(x, g) < 1e-9

    def test_perturbation_detected(self):
        g = GroupSpec("orthogonal", 3)
        x = random_group_element(g, 12)
        assert membership_violation(x + 0.01, g) > 1e-4

    def test_determinant_constraints(self):
        x = random_group_element(GroupSpec("special_orthogonal", 3), 13)
        assert det(x) == pytest.approx(1.0, abs=1e-9)
        y = random_group_element(GroupSpec("sl", 3), 14)
        assert det(y) == pytest.approx(1.0, abs=1e-9)


class TestCriticalPointFrom:
    def test_residual_zero_at_true_point(self):
        u = random_general(2, 20)
        point = enumerate_orthogonal_critical(u)[0]
        again = critical_point_from(point.x, u, GroupSpec("orthogonal", 2))
        assert again.residual < 1e-10
        assert again.distance_sq == pytest.approx(point.distance_sq)

    def test_residual_positive_off_critical(self):
        u = random_general(2, 21)
        x = random_group_element(GroupSpec("orthogonal", 2), 22)
        assert critical_residual(x, u, GroupSpec("orthogonal", 2)) > 1e-4


class TestCensus:
    def test_finds_all_orthogonal_points(self):
        u = random_general(2, 30)
        census = multistart_census(u, GroupSpec("orthogonal", 2), starts=400, seed=0)
        expected = sorted(p.distance_sq for p in enumerate_orthogonal_critical(u))
        got = sorted(p.distance_sq for p in census)
        assert np.allclose(got, expected, atol=1e-6)

    def test_deterministic(self):
        u = random_general(2, 31)
        g = GroupSpec("sl", 2)
        a = multistart_census(u, g, starts=300, seed=5)
        b = multistart_census(u, g, starts=300, seed=5)
        assert len(a) == len(b)
        for p, q in zip(a, b):
            assert np.array_equal(p.x, q.x)

    def test_more_starts_never_lose_points(self):
        u = random_general(2, 32)
        g = GroupSpec("sl_pm", 2)
        few = multistart_census(u, g, starts=100, seed=1)
        many = multistart_census(u, g, starts=800, seed=1)
        assert len(many) >= len(few)

    def test_diagnostics_accounting(self):
        u = random_general(2, 33)
        census = multistart_census(u, GroupSpec("orthogonal", 2), starts=200, seed=2)
        assert census.attempted == 200
        assert census.converged + census.failed == census.attempted

    def test_residuals_small(self):
        u = random_general(2, 34)
        census = multistart_census(u, GroupSpec("symplectic", 2), starts=300, seed=3)
        assert len(census) >= 1
        for p in census:
            assert p.residual < 1e-9

    @pytest.mark.parametrize(
        "kind,n", [("symplectic", 4), ("sl_pm", 3), ("symplectic", 2), ("orthogonal", 3)]
    )
    def test_larger_census_contains_smaller_bitwise(self, kind, n):
        # A start's trajectory must not depend on the other starts in the
        # batch, so every point of a 100-start census is, byte for byte, a
        # point of the 800-start census on the same seed.
        g = GroupSpec(kind, n)
        for seed in range(6):
            u = random_general(n, seed)
            few = multistart_census(u, g, starts=100, seed=seed)
            many = {p.x.tobytes() for p in multistart_census(u, g, starts=800, seed=seed)}
            for p in few:
                assert p.x.tobytes() in many, f"{kind} n={n} seed={seed}"


def _union_find_representatives(points, radius):
    """Reference single linkage: lowest index of each cluster, ascending."""
    parent = list(range(len(points)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if np.sum((points[i] - points[j]) ** 2) <= radius * radius:
                parent[root(i)] = root(j)
    lowest = {}
    for i in range(len(points)):
        lowest.setdefault(root(i), i)
    return sorted(lowest.values())


class TestMerge:
    def test_chain_links_transitively(self):
        # Rows 0 and 1 are 1.8 radius apart, linked only through row 2.
        r = 1e-5
        direction = np.ones(16) / 4.0
        flat = np.stack([np.zeros(16), 1.8 * r * direction, 0.9 * r * direction]) + 0.3
        assert list(_merge_representatives(flat, r)) == [0]

    def test_far_clusters_keep_lowest_index(self):
        r = 1e-5
        a, b = np.full(16, 0.5), np.full(16, -0.5)
        offsets = 0.2 * r * np.eye(16)
        flat = np.stack([b, a, b + offsets[0], a + offsets[1], a + offsets[2]])
        assert list(_merge_representatives(flat, r)) == [0, 1]

    def test_matches_reference_union_find(self):
        rng = np.random.default_rng(7)
        r = 1e-3
        for _ in range(5):
            # Random walks with steps near the radius: clusters that are
            # chains, some of them broken where a step exceeds it.
            walks = []
            for centre in rng.uniform(-1.0, 1.0, (6, 16)):
                steps = rng.normal(size=(rng.integers(1, 12), 16))
                steps *= (r * rng.uniform(0.3, 1.2, len(steps)) / np.linalg.norm(steps, axis=1))[:, None]
                walks.append(centre + np.cumsum(steps, axis=0))
            flat = np.concatenate(walks)[rng.permutation(sum(len(w) for w in walks))]
            assert list(_merge_representatives(flat, r)) == _union_find_representatives(flat, r)


def _halving_reference(sys_, x, step, phi):
    """Reference Armijo search: halve one step length at a time, 30 tries."""
    alpha = np.ones(len(x))
    accepted = np.zeros(len(x), dtype=bool)
    xnew, phinew = x.copy(), phi.copy()
    for _ in range(30):
        idx = np.flatnonzero(~accepted)
        if idx.size == 0:
            break
        cand = x[idx] + alpha[idx, None, None] * step[idx]
        fc = sys_.residual(cand)
        pc = np.einsum("br,br->b", fc, fc)
        ok = pc <= (1.0 - 1e-4 * alpha[idx]) * phi[idx]
        xnew[idx[ok]], phinew[idx[ok]] = cand[ok], pc[ok]
        accepted[idx[ok]] = True
        alpha[idx[~ok]] *= 0.5
    return xnew, phinew, np.flatnonzero(~accepted)


class TestArmijo:
    def test_blocks_match_sequential_halving(self):
        g = GroupSpec("symplectic", 4)
        u = random_general(4, 40)
        sys_ = _System(u, g)
        rng = np.random.default_rng(3)
        x = np.stack([random_group_element(g, s) for s in range(60)])
        x += 0.05 * rng.normal(size=x.shape)
        fvals = sys_.residual(x)
        phi = np.einsum("br,br->b", fvals, fvals)
        jac = sys_.jacobian(x)
        step = np.stack([np.linalg.lstsq(j, -f, rcond=None)[0] for j, f in zip(jac, fvals)])
        # Overlong Gauss-Newton steps need 0 to 29 halvings; uphill ones
        # (every seventh) pass at no length.
        step *= np.ldexp(1.0, np.arange(60) % 30 - 2)[:, None]
        step[::7] *= -1.0
        step = step.reshape(x.shape)
        xnew, fnew, phinew, stalled = _armijo(sys_, x, step, fvals, phi)
        xref, phiref, stalled_ref = _halving_reference(sys_, x, step, phi)
        assert np.array_equal(xnew, xref)
        assert np.array_equal(phinew, phiref)
        assert np.array_equal(np.sort(stalled), stalled_ref)
        assert np.array_equal(fnew, sys_.residual(xnew))
        assert 0 < len(stalled) < 60
