"""The multiplier elimination chain and the root finder."""

import itertools

import numpy as np
import pytest
from test_critsearch import _union_find_representatives

from groupnear.errors import ConditioningError, ConvergenceError, DegeneracyError, InputError, UnsupportedError
from groupnear.matcore import random_general, sym_eig
from groupnear.polyres import (
    UniPoly,
    chain_degree,
    distinct_root_count,
    poly_roots,
    resultant_chain,
)
from groupnear.torused import WeightSet, random_rank1_coefficients


def _spectrum(n, seed):
    u = random_general(n, seed)
    vals = sym_eig(u.T @ u).values
    return np.sort(vals)[::-1]


def _torus_polynomial(seed):
    """The rank-1 torus critical equation sum_k k a_k t^(k+13) for the
    weights -13, -11, ..., 13 (degree 26), with the coefficient draw of the
    `bkk` command."""
    w = WeightSet(1, tuple((k,) for k in range(-13, 14, 2)), (1,) * 14)
    draw = random_rank1_coefficients(w, seed)
    dense = np.zeros(27)
    for k, a in draw.items():
        dense[k + 13] = k * a
    return dense


def _eliminant_by_roots(mu, c):
    """prod over sign vectors eps of (prod_i lambda_i^eps_i(c) - 1), with
    lambda_i^+- the two complex roots of lambda^2 - (mu_i - 2c) lambda + c^2.

    The larger root comes from the quadratic formula with the sign that does
    not cancel, the smaller one as c^2 over it."""
    e1 = mu - 2.0 * c
    disc = np.sqrt(e1 * e1 - 4.0 * c * c + 0j)
    big = 0.5 * (e1 + np.where((e1 * disc.conjugate()).real >= 0.0, disc, -disc))
    pairs = np.stack((big, c * c / big), axis=1)
    return np.prod(
        [np.prod(pairs[np.arange(mu.size), eps]) - 1.0 for eps in itertools.product((0, 1), repeat=mu.size)]
    )


def _assert_roots_contract(coeffs):
    """One root per degree, sorted by (real, imag), each with backward error
    |p(z)| / sum_k |a_k| |z|^k below 1e-12; a deflated zero root has
    p(0) = 0 exactly."""
    roots = poly_roots(coeffs)
    assert roots.size == coeffs.size - 1
    keys = list(zip(roots.real, roots.imag))
    assert keys == sorted(keys)
    value = np.abs(np.polynomial.polynomial.polyval(roots, coeffs))
    scale = np.polynomial.polynomial.polyval(np.abs(roots), np.abs(coeffs))
    assert np.all((value < 1e-12 * scale) | (value == 0.0))


class TestUniPoly:
    def test_strips_zero_lead(self):
        p = UniPoly([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: UniPoly(np.ones((2, 2))), "^UniPoly: coefficients must be one-dimensional"),
            (lambda: UniPoly([1.0, np.nan]), "^UniPoly: coefficients must be finite"),
            (lambda: UniPoly([1.0, np.inf]), "^UniPoly: coefficients must be finite"),
            (lambda: poly_roots(np.ones((2, 2))), "^polynomial: expected a 1-d coefficient array"),
        ],
        ids=["unipoly_2d", "unipoly_nan", "unipoly_inf", "roots_2d"],
    )
    def test_malformed_coefficients_refused(self, make, message):
        with pytest.raises(InputError, match=message):
            make()


class TestChain:
    def test_one_dimensional_closed_form(self):
        # A single multiplier pinned to 1 leaves c^2 + 2c + (1 - mu),
        # so the roots in c are -1 +- sqrt(mu).
        mu = np.array([2.7])
        roots = np.sort(poly_roots(resultant_chain(mu)).real)
        expect = np.sort([-1.0 - np.sqrt(2.7), -1.0 + np.sqrt(2.7)])
        assert np.allclose(roots, expect, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degree_law(self, n):
        mu = _spectrum(n, 500 + n)
        assert resultant_chain(mu).degree == chain_degree(n)
        assert chain_degree(n) == n * 2**n

    # The chain has leading coefficient 1 before normalisation, so the
    # returned polynomial divided by its leading coefficient must equal the
    # product over the quadratics' roots, up to rounding of the terms.
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_product_over_quadratic_roots(self, n, seed):
        mu = _spectrum(n, seed)
        poly = resultant_chain(mu)
        halfwidth = 1.1 * (1.0 + np.sqrt(mu[0]))
        rng = np.random.default_rng(seed)
        real = rng.uniform(-halfwidth, halfwidth, size=5)
        cplx = halfwidth * rng.uniform(0.1, 1.0, size=5) * np.exp(2j * np.pi * rng.uniform(size=5))
        coeffs = poly.coeffs / poly.coeffs[-1]
        for c in np.concatenate([real, cplx]):
            scale = np.polynomial.polynomial.polyval(abs(c), np.abs(coeffs))
            assert abs(np.polynomial.polynomial.polyval(c, coeffs) - _eliminant_by_roots(mu, c)) < 1e-11 * scale

    # Newton on the product itself, from each real root of the chain,
    # must barely move it: only rounding separates the two.
    @pytest.mark.parametrize("n,seed", [(3, 77), (4, 3)])
    def test_real_roots_are_zeros_of_the_product(self, n, seed):
        mu = _spectrum(n, seed)
        roots = poly_roots(resultant_chain(mu))
        real = roots[np.abs(roots.imag) < 1e-8].real
        assert real.size > 0
        for c0 in real:
            c, h = float(c0), 1e-6 * (1.0 + abs(float(c0)))
            for _ in range(8):
                f, up, down = (_eliminant_by_roots(mu, x).real for x in (c, c + h, c - h))
                step = f / ((up - down) / (2 * h))
                c -= step
                if abs(step) < 1e-14 * (1.0 + abs(c)):
                    break
            assert abs(c - float(c0)) < 1e-8 * (1.0 + abs(c))

    def test_beyond_float_range_is_a_conditioning_error(self):
        # Spectrum of 1e14 u: the chain exceeds 1e308 on its root enclosure.
        with pytest.raises(ConditioningError, match="double-precision range"):
            resultant_chain(_spectrum(3, 0) * 1e28)

    def test_rejects_nonpositive_spectrum(self):
        with pytest.raises(DegeneracyError):
            resultant_chain(np.array([1.0, -2.0]))

    @pytest.mark.parametrize(
        "mu,error,message",
        [
            (np.array([]), InputError, "non-empty 1-d"),
            (np.ones((2, 2)), InputError, "non-empty 1-d"),
            (np.arange(1.0, 6.0), UnsupportedError, "spectrum size 5 exceeds chain limit 4"),
        ],
        ids=["empty", "2d", "five"],
    )
    def test_rejects_malformed_spectrum(self, mu, error, message):
        with pytest.raises(error, match=message):
            resultant_chain(mu)

    def test_close_eigenvalues_pass(self):
        # Clustered spectra are refused by the solver's SVD frame, not here:
        # a repeated value still gives the full-degree chain.
        assert resultant_chain(np.array([2.0, 2.0, 0.5])).degree == chain_degree(3)


class TestPolyRoots:
    def test_cubic_with_known_roots(self):
        # (x-1)(x-2)(x-3) = -6 + 11x - 6x^2 + x^3
        roots = np.sort(poly_roots([-6.0, 11.0, -6.0, 1.0]).real)
        assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-10)

    def test_complex_pair(self):
        roots = poly_roots([1.0, 0.0, 1.0])
        assert np.allclose(np.sort_complex(roots), [-1j, 1j], atol=1e-12)

    def test_zero_roots_deflated(self):
        # x^2 (x - 5)
        roots = np.sort(poly_roots([0.0, 0.0, -5.0, 1.0]).real)
        assert np.allclose(roots, [0.0, 0.0, 5.0], atol=1e-12)

    def test_root_count_matches_degree(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=13)
        assert poly_roots(coeffs).size == 12

    def test_high_degree_chain_polynomial(self):
        # Degree 24 output of the elimination chain: all roots must land.
        mu = _spectrum(3, 88)
        roots = poly_roots(resultant_chain(mu))
        assert roots.size == 24

    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 0)])
    def test_chain_roots_contract(self, n, seed):
        _assert_roots_contract(resultant_chain(_spectrum(n, seed)).coeffs)

    @pytest.mark.parametrize("zeros", [1, 2, 3])
    def test_zero_roots_contract(self, zeros):
        # Exact zero roots beside negative roots and complex pairs: the
        # deflated zeros sort after the four roots of negative real part.
        nonzero = [-2.0, -0.5, -1.0 + 2.0j, -1.0 - 2.0j, 1.5 + 0.5j, 1.5 - 0.5j]
        coeffs = np.concatenate([np.zeros(zeros), np.polynomial.polynomial.polyfromroots(nonzero).real])
        _assert_roots_contract(coeffs)
        roots = poly_roots(coeffs)
        assert np.count_nonzero(roots == 0.0) == zeros
        assert np.all(roots[4 : 4 + zeros] == 0.0)

    @pytest.mark.parametrize(
        "coeffs", [[3.0, -2.0], [-1.0, 4.0], [0.0, 5.0], [2.0, -3.0, 1.0], [4.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    )
    def test_low_degree_contract(self, coeffs):
        _assert_roots_contract(np.array(coeffs))

    def test_torus_roots_contract(self):
        _assert_roots_contract(_torus_polynomial(11))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(InputError):
            poly_roots([0.0, 0.0])

    def test_constant_has_no_roots(self):
        assert poly_roots([3.0]).size == 0

    def test_lapack_failure_is_a_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(ConvergenceError):
            poly_roots([1.0, 0.0, 1.0])


class TestDistinctRootCount:
    def test_collapses_close_pairs(self):
        roots = np.array([1.0, 1.0 + 5e-8, 2.0], dtype=complex)
        assert distinct_root_count(roots, tol=1e-7) == 2

    def test_keeps_separated_roots(self):
        roots = np.array([1.0, 1.001, 2.0], dtype=complex)
        assert distinct_root_count(roots, tol=1e-7) == 3

    def test_conjugate_pairs_distinct(self):
        roots = np.array([1j, -1j])
        assert distinct_root_count(roots, tol=1e-7) == 2

    def test_no_roots_no_clusters(self):
        assert distinct_root_count(np.array([], dtype=complex)) == 0

    @pytest.mark.parametrize("low,high", [(0.3, 1.2), (1.5, 3.0)])
    def test_matches_reference_union_find(self, low, high):
        # Random complex walks in the unit disc (radius tol) with steps of
        # low to high times the radius.  Near it, clusters are chains, some
        # of them broken where a step exceeds it; past it, as on the rank-1
        # torus inputs, no two roots are within the radius and every root is
        # its own cluster.
        rng = np.random.default_rng(3)
        tol = 1e-7
        for _ in range(20):
            walks = []
            for centre in rng.uniform(-0.7, 0.7, (8, 2)):
                steps = rng.normal(size=(rng.integers(1, 10), 2))
                if low > 1.0:
                    # First-quadrant steps: no walk comes back within the radius.
                    steps = np.abs(steps)
                steps *= (tol * rng.uniform(low, high, len(steps)) / np.linalg.norm(steps, axis=1))[:, None]
                walks.append(centre + np.cumsum(steps, axis=0))
            points = np.concatenate(walks)[rng.permutation(sum(len(w) for w in walks))]
            roots = points[:, 0] + 1j * points[:, 1]
            expected = len(_union_find_representatives(points, tol))
            assert distinct_root_count(roots, tol=tol) == expected
            if low > 1.0:
                assert expected == roots.size
