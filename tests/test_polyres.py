"""Resultants, the multiplier elimination chain, and the root finder."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from groupnear.errors import ConditioningError, ConvergenceError, DegeneracyError, InputError
from groupnear.matcore import det_mantissa_exp, random_general, sym_eig
from groupnear.polyres import (
    UniPoly,
    _collapse_values,
    chain_degree,
    distinct_root_count,
    poly_roots,
    resultant,
    resultant_chain,
    sylvester,
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


def _syl_det_reference(cur, t, f):
    mant, expo = det_mantissa_exp(sylvester(cur * t ** np.arange(cur.size), f))
    return math.ldexp(mant, expo)


def _collapse_reference(mu, c):
    """The chain collapse at one multiplier value, one Sylvester determinant
    and one single-column fit at a time."""
    n = mu.size
    cur = np.array([1.0, 2.0 * c - mu[n - 1], c * c])
    for i in range(n - 1, 1, -1):
        f = np.array([c * c, 2.0 * c - mu[i - 1], 1.0])
        deg = 2 ** (n - i + 1)
        tnodes = np.cos(np.pi * (2 * np.arange(deg + 1) + 1) / (2 * (deg + 1)))
        tvals = np.array([_syl_det_reference(cur, t, f) for t in tnodes])
        mono = chebyshev.cheb2poly(chebyshev.chebfit(tnodes, tvals, deg))
        cur = np.pad(mono, (0, deg + 1 - mono.size))
    f = np.array([c * c, 2.0 * c - mu[0], 1.0])
    return _syl_det_reference(cur, 1.0, f)


def _assert_roots_contract(coeffs):
    """One root per degree, sorted by (real, imag), each with backward error
    |p(z)| / sum_k |a_k| |z|^k below 1e-12."""
    roots = poly_roots(coeffs)
    assert roots.size == coeffs.size - 1
    keys = list(zip(roots.real, roots.imag))
    assert keys == sorted(keys)
    value = np.polynomial.polynomial.polyval(roots, coeffs)
    scale = np.polynomial.polynomial.polyval(np.abs(roots), np.abs(coeffs))
    assert np.max(np.abs(value) / scale) < 1e-12


class TestSylvester:
    def test_linear_pair(self):
        # Res(x - a, x - b) = a - b with p-rows stacked above q-rows.
        a, b = 5.0, 2.0
        assert resultant([-a, 1.0], [-b, 1.0]) == pytest.approx(a - b)

    def test_shared_root_vanishes(self):
        # (x-1)(x-2) and (x-1)(x+3) share the root 1.
        p = np.array([2.0, -3.0, 1.0])
        q = np.array([-3.0, 2.0, 1.0])
        assert abs(resultant(p, q)) < 1e-12

    def test_matrix_shape(self):
        m = sylvester([1.0, 2.0, 3.0], [4.0, 5.0])
        assert m.shape == (3, 3)

    def test_product_of_differences(self):
        # Res(p, q) = lead(p)^deg(q) * lead(q)^deg(p) * prod (pi - qj)
        # for p = (x-1)(x-4), q = (x-2)(x-6): (1-2)(1-6)(4-2)(4-6) = -20.
        p = np.array([4.0, -5.0, 1.0])
        q = np.array([12.0, -8.0, 1.0])
        assert resultant(p, q) == pytest.approx(-20.0)

    def test_beyond_float_range_is_a_conditioning_error(self):
        # Both cubics carry 1e120 coefficients: the resultant is near 1e480.
        with pytest.raises(ConditioningError, match="double-precision range"):
            resultant([1.0, 1e120, 0.0, 1.0], [2.0, 0.0, 1e120, 1.0])

    def test_degree_zero_rejected(self):
        with pytest.raises(InputError):
            sylvester([1.0], [1.0, 2.0])


class TestUniPoly:
    def test_strips_zero_lead(self):
        p = UniPoly([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1

    def test_evaluation(self):
        p = UniPoly([1.0, 0.0, 1.0])  # 1 + x^2
        assert p(2.0) == pytest.approx(5.0)


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

    @pytest.mark.parametrize("n", [2, 3])
    def test_fit_agrees_with_direct_evaluation(self, n):
        # The interpolated polynomial must reproduce the collapsed
        # determinant away from the sample nodes, up to the global
        # normalization applied to the returned coefficients.
        mu = _spectrum(n, 600 + n)
        poly = resultant_chain(mu)
        rng = np.random.default_rng(n)
        halfwidth = 1.1 * (1.0 + np.sqrt(mu[0]))
        cs = rng.uniform(-halfwidth, halfwidth, size=12)
        direct = np.asarray([_collapse_values(mu, np.array([c]))[0] for c in cs])
        fitted = np.asarray([poly(float(c)) for c in cs])
        direct = direct / np.max(np.abs(direct))
        fitted = fitted / np.max(np.abs(fitted))
        assert np.max(np.abs(direct - fitted)) < 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_collapse_equals_scalar_reference_bitwise(self, n, seed):
        mu = _spectrum(n, seed)
        halfwidth = 1.1 * (1.0 + np.sqrt(mu[0]))
        cs = np.random.default_rng(seed).uniform(-halfwidth, halfwidth, size=(3, 5))
        batched = _collapse_values(mu, cs.ravel())
        assert batched.shape == (cs.size,)
        reference = np.array([_collapse_reference(mu, c) for c in cs.ravel()])
        assert np.array_equal(batched, reference)
        assert _collapse_values(mu, cs[1, 2:3])[0] == reference[7]

    def test_collapse_beyond_float_range_is_a_conditioning_error(self):
        # Spectrum of 1e14 * u: the last Sylvester determinant exceeds 1e308.
        mu = _spectrum(3, 0) * 1e28
        with pytest.raises(ConditioningError, match="double-precision range"):
            _collapse_values(mu, np.array([1e14]))

    def test_roots_track_collapsed_determinant_zeros(self):
        # Each real root of the fitted polynomial must sit close to a zero
        # of the directly evaluated determinant: a few Newton steps on the
        # exact evaluation should barely move it.
        mu = _spectrum(3, 77)
        roots = poly_roots(resultant_chain(mu))
        real = roots[np.abs(roots.imag) < 1e-8].real
        assert real.size > 0
        for c0 in real:
            c, h = float(c0), 1e-7 * (1.0 + abs(float(c0)))
            for _ in range(8):
                f, up, down = _collapse_values(mu, np.array([c, c + h, c - h]))
                d = (up - down) / (2 * h)
                if d == 0.0:
                    break
                step = f / d
                c -= step
                if abs(step) < 1e-13 * (1.0 + abs(c)):
                    break
            assert abs(c - float(c0)) < 1e-4 * (1.0 + abs(c))

    def test_rejects_nonpositive_spectrum(self):
        with pytest.raises(DegeneracyError):
            resultant_chain(np.array([1.0, -2.0]))


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

    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)])
    def test_chain_roots_contract(self, n, seed):
        _assert_roots_contract(resultant_chain(_spectrum(n, seed)).coeffs)

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
