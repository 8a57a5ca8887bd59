"""Univariate polynomial tools: the elimination chain for the
determinant-one critical systems, and companion-matrix roots.

Polynomials are kept as dense ascending coefficient arrays (index equals
degree).  The chain eliminates one eigenvalue quadratic at a time by its
closed-form resultant with a monic quadratic, the norm
A^2 + e1 A B + e2 B^2 (Cox, Little and O'Shea, Using Algebraic Geometry,
ch. 3), so its coefficients come from exact polynomial arithmetic in
double precision; bivariate products are 1-d convolutions on a strided
layout.  Roots are the eigenvalues of the companion matrix, computed by
LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as _poly

from .errors import (
    ConditioningError,
    ConvergenceError,
    DegeneracyError,
    InputError,
    UnsupportedError,
)


# Largest Gram-spectrum size the elimination chain accepts (and the largest
# size the determinant-one solver accepts); degree grows as n * 2**n, so
# this already means a degree-64 resultant.
CHAIN_MAX_N = 4


def _as_coeffs(p) -> np.ndarray:
    if isinstance(p, UniPoly):
        return p.coeffs
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise InputError("polynomial: expected a 1-d coefficient array")
    return arr


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial, ascending coefficients.

    Normal form: the leading stored coefficient is nonzero; the zero
    polynomial is the empty coefficient list.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1:
            raise InputError("UniPoly: coefficients must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise InputError("UniPoly: coefficients must be finite")
        while arr.size and arr[-1] == 0.0:
            arr = arr[:-1]
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return int(self.coeffs.size) - 1


def chain_degree(n: int) -> int:
    """Degree in the multiplier variable of the eliminated chain output."""
    return n * 2**n


def _check_spectrum(mu: np.ndarray) -> np.ndarray:
    """mu as floats: 1-d, non-empty, positive, finite, at most CHAIN_MAX_N
    values.  Close values pass; the solver's `_svd_frame` refuses those."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size < 1:
        raise InputError("spectrum: expected a non-empty 1-d array")
    if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
        raise DegeneracyError("spectrum: values must be positive and finite")
    if mu.size > CHAIN_MAX_N:
        raise UnsupportedError(f"spectrum size {mu.size} exceeds chain limit {CHAIN_MAX_N}")
    return mu


def resultant_chain(mu) -> UniPoly:
    """Eliminate the per-eigenvalue quadratics down to one polynomial in the
    scalar multiplier.

    lambda_i solves lambda^2 - e1 lambda + e2 = 0 with e1 = mu_i - 2c and
    e2 = c^2.  Starting from Q(t) = t - 1, each level writes Q(lambda_i t)
    as A(t) + B(t) lambda_i, reducing lambda^j = alpha_j + beta_j lambda by
    alpha_{j+1} = -e2 beta_j and beta_{j+1} = alpha_j + e1 beta_j, and takes
    the norm Q <- A^2 + e1 A B + e2 B^2 = Q(lambda_i' t) Q(lambda_i'' t).
    The chain is Q(1) = prod over sign vectors eps of
    (prod_i lambda_i^eps_i(c) - 1), of degree n 2^n with leading
    coefficient 1.  Row j of Q has c-degree at most n j, so with a stride
    of n 2^n + 1 per power of t each bivariate product is one 1-d
    convolution, and only the rounding of exact polynomial arithmetic
    enters.  Every root c comes with eigenvalues of unit product, so some
    |lambda_i| <= 1 and |c| <= 1 + sqrt(max mu); ConditioningError when
    sum |a_k| h^k, the chain's bound on the disc |c| <= h of 1.1 times
    that radius, leaves the double-precision range.  The result is
    normalised to unit max coefficient.
    """
    mu = _check_spectrum(mu)
    stride = chain_degree(mu.size) + 1
    q = np.zeros(2 * stride)
    q[0], q[stride] = -1.0, 1.0
    e2 = np.array([0.0, 0.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        for m in mu:
            e1 = np.array([m, -2.0])
            alpha, beta = np.eye(1, stride)[0], np.zeros(stride)
            a, b = [], []
            for row in q.reshape(-1, stride):
                a.append(np.convolve(row, alpha)[:stride])
                b.append(np.convolve(row, beta)[:stride])
                alpha, beta = -np.convolve(e2, beta)[:stride], alpha + np.convolve(e1, beta)[:stride]
            a, b = np.concatenate(a), np.concatenate(b)
            q = np.convolve(a, a) + np.convolve(e1, np.convolve(a, b))[:-1]
            q += np.convolve(e2, np.convolve(b, b))[:-2]
            q = q[: q.size - stride + 1]  # whole rows, up to t-degree 2 (rows - 1)
        coeffs = q.reshape(-1, stride).sum(axis=0)
        reach = _poly.polyval(1.1 * (1.0 + math.sqrt(float(np.max(mu)))), np.abs(coeffs))
    if not np.isfinite(reach):
        raise ConditioningError("resultant chain leaves the double-precision range")
    return UniPoly(coeffs / np.max(np.abs(coeffs)))


def poly_roots(p) -> np.ndarray:
    """All complex roots, as the eigenvalues of the companion matrix.

    Coefficients are rescaled to unit max magnitude and exact zero roots
    are deflated first.  The companion matrix of the remaining degree-d
    polynomial, ones on the subdiagonal and -a_k / a_d in the last column
    (the unrotated matrix of `numpy.polynomial.polynomial.polycompanion`),
    goes to LAPACK through `np.linalg.eigvals`, which balances it before
    the QR iteration (Edelman and Murakami, Math. Comp. 64, 1995, bound the
    backward error of this method in the coefficients).  Output is sorted
    by (real, imaginary), the deflated zeros among the rest.  Raises
    ConvergenceError if LAPACK does not converge.
    """
    pc = _as_coeffs(p)
    nonzero = np.flatnonzero(pc)
    if nonzero.size == 0:
        raise InputError("poly_roots: zero polynomial")
    zero_roots = int(nonzero[0])
    pc = pc[zero_roots : nonzero[-1] + 1] / np.abs(pc).max()
    d = pc.size - 1
    companion = np.eye(d, k=-1)
    companion[:, -1:] -= pc[:-1, None] / pc[-1]
    try:
        z = np.linalg.eigvals(companion).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("poly_roots: companion eigenvalues did not converge") from exc
    if zero_roots:
        z = np.concatenate([np.zeros(zero_roots, dtype=complex), z])
    return z[np.lexsort((z.imag, z.real))]


def distinct_root_count(roots, tol: float = 1e-7) -> int:
    """Number of single-linkage clusters at radius tol * max(1, |root|max).

    Roots are finite, so each is linked to itself; when no two roots lie
    within the radius, each is its own cluster and the count is returned
    at once.  Otherwise each root repeatedly takes the smallest label among
    the roots within the radius (itself included) until no label changes;
    a cluster then carries one label, its lowest index.
    """
    rs = np.asarray(roots, dtype=complex)
    if rs.size == 0:
        return 0
    radius = tol * max(1.0, float(np.abs(rs).max()))
    linked = np.abs(rs[:, None] - rs[None, :]) <= radius
    if np.count_nonzero(linked) == rs.size:
        return int(rs.size)
    labels = np.arange(rs.size)
    while True:
        spread = np.min(np.where(linked, labels, rs.size), axis=1)
        if np.array_equal(spread, labels):
            return int(np.unique(labels).size)
        labels = spread
