"""Univariate polynomial tools: Sylvester resultants, an elimination chain
for the determinant-one critical systems, and companion-matrix roots.

Polynomials are kept as dense ascending coefficient arrays (index equals
degree).  The elimination chain never manipulates bivariate coefficients
symbolically; it evaluates on Chebyshev grids and interpolates back at the
known degree bounds.  Every level is batched: the Sylvester matrices for all
multiplier values and all grid nodes form one stack whose determinants come
from one call, and one multi-column fit recovers every partial eliminant.
Roots are the eigenvalues of the companion matrix, computed by LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from .errors import (
    ConditioningError,
    ConvergenceError,
    DegeneracyError,
    InputError,
    UnsupportedError,
)
from .matcore import det_mantissa_exp

__all__ = [
    "UniPoly",
    "sylvester",
    "resultant",
    "resultant_chain",
    "chain_degree",
    "poly_roots",
    "distinct_root_count",
]

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

    def __call__(self, x):
        if self.coeffs.size == 0:
            return np.zeros_like(np.asarray(x, dtype=float)) + 0.0
        return _poly.polyval(x, self.coeffs)


def sylvester(p, q) -> np.ndarray:
    """Sylvester matrix of two polynomials in their shared variable.

    Rows carry descending coefficients: deg(q) shifted copies of p first,
    then deg(p) shifted copies of q, so the determinant is the resultant
    Res(p, q).  Structural degrees are taken from the array lengths, which
    lets callers keep vanishing leading coefficients on purpose (the
    determinant then continues the resultant polynomially).
    """
    return _sylvester_stack(_as_coeffs(p), _as_coeffs(q))


def _sylvester_stack(pc: np.ndarray, qc: np.ndarray) -> np.ndarray:
    """`sylvester` of every coefficient row pc[..., :] against qc[..., :]
    (leading axes broadcast), as one (..., k, k) stack."""
    dp, dq = pc.shape[-1] - 1, qc.shape[-1] - 1
    if dp < 1 or dq < 1:
        raise InputError("sylvester: both polynomials need degree >= 1")
    size = dp + dq
    mat = np.zeros(np.broadcast_shapes(pc.shape[:-1], qc.shape[:-1]) + (size, size))
    pdesc = pc[..., ::-1]
    qdesc = qc[..., ::-1]
    for row in range(dq):
        mat[..., row, row : row + dp + 1] = pdesc
    for row in range(dp):
        mat[..., dq + row, row : row + dq + 1] = qdesc
    return mat


def _det_values(mats: np.ndarray) -> np.ndarray:
    """Determinants of a matrix or a stack by `det_mantissa_exp`; raises
    ConditioningError when one leaves the double-precision range."""
    mant, expo = det_mantissa_exp(mats)
    with np.errstate(over="ignore"):
        vals = np.ldexp(mant, expo)
    if not np.all(np.isfinite(vals)):
        raise ConditioningError("determinant leaves the double-precision range")
    return vals


def resultant(p, q) -> float:
    """Resultant as the Sylvester determinant, overflow-safe in between;
    ConditioningError when the resultant itself exceeds the double range."""
    return float(_det_values(sylvester(p, q)))


def chain_degree(n: int) -> int:
    """Degree in the multiplier variable of the eliminated chain output."""
    return n * 2**n


def _cheb_nodes(count: int, halfwidth: float) -> np.ndarray:
    j = np.arange(count)
    return halfwidth * np.cos(np.pi * (2 * j + 1) / (2 * count))


def _cheb2poly_columns(cheb: np.ndarray) -> np.ndarray:
    """numpy's `cheb2poly` recursion applied to every column of cheb at once.

    The operations and their order are those of `cheb2poly`, so each column
    is bitwise equal to converting it alone (up to the sign of exact zeros,
    and with trailing zeros kept rather than trimmed).
    """
    count = cheb.shape[0]
    if count < 3:
        return cheb
    c0, c1 = cheb[-2:-1], cheb[-1:]
    for i in range(count - 1, 1, -1):
        tmp = c0
        c0 = -c1
        c0[0] += cheb[i - 2]
        c1 = 2 * np.concatenate((c1[:1] * 0, c1))
        c1[: tmp.shape[0]] += tmp
    out = np.concatenate((c1[:1] * 0, c1))
    out[: c0.shape[0]] += c0
    return out


def _fit_monomial(nodes: np.ndarray, vals: np.ndarray, degree: int, halfwidth: float) -> np.ndarray:
    """Interpolate samples at Chebyshev nodes back to monomial coefficients.

    vals holds one sample per node, or one column of samples per fitted
    polynomial; the coefficients come back in the same layout (degree + 1
    rows).  Fits in the Chebyshev basis of the rescaled variable (well
    conditioned at these nodes), converts to monomials, and verifies that
    every column actually reproduces its samples; a relative residual above
    1e-6 means the degree is too high for double precision and we refuse
    to continue.
    """
    z = nodes / halfwidth
    cheb_coeffs = _cheb.chebfit(z, vals, degree)
    mono_z = _cheb2poly_columns(cheb_coeffs)
    coeffs = (mono_z.T / halfwidth ** np.arange(degree + 1)).T
    cols = vals.reshape(nodes.size, -1)
    check = _poly.polyval(nodes, coeffs.reshape(degree + 1, -1)).T
    denom = np.max(np.abs(cols), axis=0)
    resid = np.max(np.abs(check - cols), axis=0) / np.where(denom > 0.0, denom, 1.0)
    if np.any(resid > 1e-6):
        raise ConditioningError(f"interpolation residual {np.max(resid):.3e} exceeds 1e-6")
    return coeffs


def _check_spectrum(mu: np.ndarray) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size < 1:
        raise InputError("spectrum: expected a non-empty 1-d array")
    if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
        raise DegeneracyError("spectrum: values must be positive and finite")
    if mu.size > CHAIN_MAX_N:
        raise UnsupportedError(f"spectrum size {mu.size} exceeds chain limit {CHAIN_MAX_N}")
    scale = max(1.0, float(np.max(mu)))
    srt = np.sort(mu)
    if srt.size > 1 and float(np.min(np.diff(srt))) < 1e-6 * scale:
        raise DegeneracyError("spectrum: eigenvalues too close for branch separation")
    return mu


def _syl_det_values(cur: np.ndarray, t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Sylvester determinants Res(cur(t * y), f) in y, for every row of cur
    and f (one per multiplier value) and every node t: shape (len(f), len(t)).

    cur holds R_{i+1} in the accumulated product variable; substituting the
    product = t * (elimination variable) turns coefficient k into cur_k t^k.
    """
    tpow = t[:, None] ** np.arange(cur.shape[-1])
    pc = cur[:, None, :] * tpow
    return _det_values(_sylvester_stack(pc, f[:, None, :]))


def _quadratics(mu_i: float, cs: np.ndarray) -> np.ndarray:
    """Rows [c^2, 2c - mu_i, 1] of f_i for every multiplier value c."""
    return np.stack((cs * cs, 2.0 * cs - mu_i, np.ones_like(cs)), axis=-1)


def _collapse_values(mu: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """The fully eliminated polynomial at every multiplier value in cs.

    Level by level, the partial eliminant in the product of the remaining
    quadratic variables is sampled at Chebyshev nodes for all values at once
    and refitted with one multi-column fit; the last level is a plain
    determinant per value, free of interpolation error.  Raises
    ConditioningError when a fit misses its samples or a determinant leaves
    the double-precision range.
    """
    n = mu.size
    cur = np.stack((np.ones_like(cs), 2.0 * cs - mu[n - 1], cs * cs), axis=-1)
    for i in range(n - 1, 1, -1):
        deg_i = 2 ** (n - i + 1)
        tnodes = _cheb_nodes(deg_i + 1, 1.0)
        tvals = _syl_det_values(cur, tnodes, _quadratics(mu[i - 1], cs))
        cur = _fit_monomial(tnodes, tvals.T, deg_i, 1.0).T
    if n == 1:
        return _poly.polyval(1.0, cur.T)
    return _syl_det_values(cur, np.ones(1), _quadratics(mu[0], cs))[:, 0]


# Working precision for the wide-coefficient recovery below.  Recovering
# monomial coefficient k from sampled values cancels roughly k*log10(2)
# digits (the top Chebyshev-to-monomial weight is 2^(k-1)), so degree 64
# burns ~19 digits before the answer starts.
_MP_DPS = {4: 50}


def _mp_cheb_nodes(count: int) -> list:
    return [mpmath.cos(mpmath.pi * (2 * j + 1) / (2 * count)) for j in range(count)]


def _mp_cheb_coeffs(vals: list, nodes_count: int) -> list:
    # First-kind node discrete orthogonality: exact for degree < nodes_count.
    n = nodes_count
    thetas = [mpmath.pi * (2 * j + 1) / (2 * n) for j in range(n)]
    out = []
    for k in range(n):
        s = mpmath.fsum(vals[j] * mpmath.cos(k * thetas[j]) for j in range(n))
        out.append(s / n if k == 0 else 2 * s / n)
    return out


def _mp_cheb_to_monomial(cheb: list) -> list:
    n = len(cheb)
    out = [mpmath.mpf(0)] * n
    out[0] += cheb[0]
    if n == 1:
        return out
    out[1] += cheb[1]
    prev = [mpmath.mpf(1)]
    cur = [mpmath.mpf(0), mpmath.mpf(1)]
    for k in range(2, n):
        nxt = [mpmath.mpf(0)] * (k + 1)
        for j, v in enumerate(cur):
            nxt[j + 1] += 2 * v
        for j, v in enumerate(prev):
            nxt[j] -= v
        for j, v in enumerate(nxt):
            out[j] += cheb[k] * v
        prev, cur = cur, nxt
    return out


def _mp_syl_det(pcs: list, fcs: list):
    # Same layout as sylvester(): deg(q) rows of p first, all descending.
    dp, dq = len(pcs) - 1, len(fcs) - 1
    size = dp + dq
    m = mpmath.zeros(size)
    prow = list(reversed(pcs))
    qrow = list(reversed(fcs))
    for r in range(dq):
        for j, v in enumerate(prow):
            m[r, r + j] = v
    for r in range(dp):
        for j, v in enumerate(qrow):
            m[dq + r, r + j] = v
    return mpmath.det(m)


def _mp_collapse_value(mu: list, c):
    n = len(mu)
    cur = [mpmath.mpf(1), 2 * c - mu[n - 1], c * c]
    for i in range(n - 1, 1, -1):
        f = [c * c, 2 * c - mu[i - 1], mpmath.mpf(1)]
        deg_i = 2 ** (n - i + 1)
        tnodes = _mp_cheb_nodes(deg_i + 1)
        tvals = []
        for t in tnodes:
            pcs = [cur[k] * t**k for k in range(len(cur))]
            tvals.append(_mp_syl_det(pcs, f))
        cur = _mp_cheb_to_monomial(_mp_cheb_coeffs(tvals, deg_i + 1))
    if n == 1:
        return mpmath.fsum(cur)
    f = [c * c, 2 * c - mu[0], mpmath.mpf(1)]
    return _mp_syl_det(cur, f)


def _mp_chain_coeffs(mu: np.ndarray, halfwidth: float, target: int, dps: int) -> np.ndarray:
    """Ascending float coefficients of R_1 computed at elevated precision."""
    with mpmath.workdps(dps):
        mus = [mpmath.mpf(float(m)) for m in mu]
        h = mpmath.mpf(float(halfwidth))
        count = target + 1
        tnodes = _mp_cheb_nodes(count)
        vals = [_mp_collapse_value(mus, h * t) for t in tnodes]
        mono = _mp_cheb_to_monomial(_mp_cheb_coeffs(vals, count))
        coeffs = np.array([float(mono[k] / h**k) for k in range(count)])
        # Spot-check the rounded fit against the high-precision samples.
        scale = max(abs(v) for v in vals)
        for j in (0, count // 2, count - 1):
            approx = _poly.polyval(float(h * tnodes[j]), coeffs)
            if abs(approx - float(vals[j])) > 1e-6 * float(scale):
                raise ConditioningError(
                    "chain interpolation: residual above 1e-6 of value scale"
                )
    return coeffs


def chain_value(mu, c):
    """Evaluate the fully eliminated polynomial at multiplier values.

    Collapses the elimination chain by direct determinant evaluation, so the
    result is free of the final interpolation's error.  c is a scalar (a
    float comes back) or an array (an array of its shape comes back, all
    values collapsed in one batch).  Useful for back-substitution checks and
    for sharpening roots found on the interpolated polynomial.
    """
    mu = _check_spectrum(mu)
    cs = np.asarray(c, dtype=float)
    vals = _collapse_values(mu, cs.reshape(-1))
    return float(vals[0]) if cs.ndim == 0 else vals.reshape(cs.shape)


def resultant_chain(mu, interval_scale: float = 1.1) -> UniPoly:
    """Eliminate the per-eigenvalue quadratics down to one polynomial in the
    scalar multiplier.

    Seeds with the quadratic in the full eigenvalue product, eliminates one
    eigenvalue at a time through Sylvester determinants, and recovers the
    final polynomial by sampling at `chain_degree(n) + 1` Chebyshev nodes.
    Every root c comes with eigenvalues of unit product, so some |λ_i| ≤ 1
    and |c| ≤ |λ_i| + sqrt(μ_i |λ_i|) ≤ 1 + sqrt(max μ); the sampling
    interval is that enclosure times interval_scale.  Keeping it snug
    matters: widening the interval inflates the fitted values' dynamic
    range and drowns the extreme coefficients in interpolation noise.  The
    result is normalised to unit max coefficient; its degree is n * 2**n
    for generic spectra.
    """
    mu = _check_spectrum(mu)
    n = mu.size
    target = chain_degree(n)
    halfwidth = float(interval_scale) * (1.0 + math.sqrt(float(np.max(mu))))
    if n in _MP_DPS:
        # Beyond degree ~30 the coefficient recovery cancels more digits
        # than a double carries; switch the sampling and the basis change
        # to elevated working precision and round at the end.
        coeffs = _mp_chain_coeffs(mu, halfwidth, target, _MP_DPS[n])
        noise_floor = 1e-24
    else:
        nodes = _cheb_nodes(target + 1, halfwidth)
        vals = _collapse_values(mu, nodes)
        coeffs = _fit_monomial(nodes, vals, target, halfwidth)
        noise_floor = 1e-12
    coeffs = coeffs / np.max(np.abs(coeffs))
    # Interpolation junk in the leading slot would misstate the degree; for
    # generic spectra the true leading coefficient sits far above this floor.
    top = coeffs.size
    while top > 1 and abs(coeffs[top - 1]) <= noise_floor:
        top -= 1
    return UniPoly(coeffs[:top])


def poly_roots(p) -> np.ndarray:
    """All complex roots, as the eigenvalues of the companion matrix.

    Coefficients are rescaled to unit max magnitude and exact zero roots
    are deflated first; `numpy.polynomial.polynomial.polyroots` then hands
    the companion matrix to LAPACK, which balances it before the QR
    iteration (Edelman and Murakami, Math. Comp. 64, 1995, bound the
    backward error of this method in the coefficients).  Output is sorted
    by (real, imaginary).  Raises ConvergenceError if LAPACK does not
    converge.
    """
    pc = _as_coeffs(p).astype(float)
    nonzero = np.flatnonzero(pc)
    if nonzero.size == 0:
        raise InputError("poly_roots: zero polynomial")
    zero_roots = int(nonzero[0])
    pc = pc[zero_roots : nonzero[-1] + 1] / np.max(np.abs(pc))
    try:
        z = _poly.polyroots(pc).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("poly_roots: companion eigenvalues did not converge") from exc
    z = np.concatenate([np.zeros(zero_roots, dtype=complex), z])
    return z[np.lexsort((z.imag, z.real))]


def distinct_root_count(roots, tol: float = 1e-7) -> int:
    """Number of single-linkage clusters at radius tol * max(1, |root|max)."""
    rs = np.asarray(roots, dtype=complex)
    k = rs.size
    if k == 0:
        return 0
    radius = tol * max(1.0, float(np.max(np.abs(rs))))
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(rs[i] - rs[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    return len({find(i) for i in range(k)})
