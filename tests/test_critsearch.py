"""Lie algebra bases, membership checks, and the multistart census."""

import numpy as np
import pytest

from groupnear.critsearch import (
    GroupSpec,
    _orthonormal_basis,
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
