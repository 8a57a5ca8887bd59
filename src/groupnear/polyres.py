"""Univariate polynomial tools: Sylvester resultants, an elimination chain
for the determinant-one critical systems, and companion-matrix roots.

Polynomials are kept as dense ascending coefficient arrays (index equals
degree).  The elimination chain never manipulates bivariate coefficients
symbolically; it evaluates on Chebyshev grids and interpolates back at the
known degree bounds, which keeps every inner step a small numeric
determinant.  Roots are the eigenvalues of the companion matrix, computed
by LAPACK.
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
    """Dense univariate polynomial, ascending coefficients, tagged variable.

    Normal form: the leading stored coefficient is nonzero; the zero
    polynomial is the empty coefficient list.
    """

    coeffs: np.ndarray
    var: str = "x"

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
    pc = _as_coeffs(p)
    qc = _as_coeffs(q)
    dp, dq = pc.size - 1, qc.size - 1
    if dp < 1 or dq < 1:
        raise InputError("sylvester: both polynomials need degree >= 1")
    size = dp + dq
    mat = np.zeros((size, size))
    pdesc = pc[::-1]
    qdesc = qc[::-1]
    for row in range(dq):
        mat[row, row : row + dp + 1] = pdesc
    for row in range(dp):
        mat[dq + row, row : row + dq + 1] = qdesc
    return mat


def resultant(p, q) -> float:
    """Resultant as the Sylvester determinant, overflow-safe."""
    mant, expo = det_mantissa_exp(sylvester(p, q))
    return math.ldexp(mant, expo)


def chain_degree(n: int) -> int:
    """Degree in the multiplier variable of the eliminated chain output."""
    return n * 2**n


def _cheb_nodes(count: int, halfwidth: float) -> np.ndarray:
    j = np.arange(count)
    return halfwidth * np.cos(np.pi * (2 * j + 1) / (2 * count))


def _fit_monomial(nodes: np.ndarray, vals: np.ndarray, degree: int, halfwidth: float) -> np.ndarray:
    """Interpolate samples at Chebyshev nodes back to monomial coefficients.

    Fits in the Chebyshev basis of the rescaled variable (well conditioned at
    these nodes), converts to monomials, and verifies the result actually
    reproduces the samples; a relative residual above 1e-6 means the degree
    is too high for double precision and we refuse to continue.
    """
    z = nodes / halfwidth
    cheb_coeffs = _cheb.chebfit(z, vals, degree)
    mono_z = _cheb.cheb2poly(cheb_coeffs)
    if mono_z.size < degree + 1:
        mono_z = np.pad(mono_z, (0, degree + 1 - mono_z.size))
    coeffs = mono_z / halfwidth ** np.arange(degree + 1)
    check = _poly.polyval(nodes, coeffs)
    denom = float(np.max(np.abs(vals))) or 1.0
    resid = float(np.max(np.abs(check - vals))) / denom
    if resid > 1e-6:
        raise ConditioningError(f"interpolation residual {resid:.3e} exceeds 1e-6")
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


def _syl_det_at(cur: np.ndarray, t: float, f: np.ndarray) -> float:
    # cur holds R_{i+1} in the accumulated product variable; substituting the
    # product = t * (elimination variable) turns coefficient k into cur_k t^k.
    pc = cur * t ** np.arange(cur.size)
    mant, expo = det_mantissa_exp(sylvester(pc, f))
    return math.ldexp(mant, expo)


def _chain_levels(mu: np.ndarray, c: float) -> list[np.ndarray]:
    """Coefficient arrays of the partial eliminants at one multiplier value.

    Entry j is the eliminant still containing the product of the first
    (n - 1 - j) quadratic variables; entry 0 is the seed quadratic.  The
    fully eliminated scalar is obtained by `_collapse_value`.
    """
    n = mu.size
    cur = np.array([1.0, 2.0 * c - mu[n - 1], c * c])
    levels = [cur]
    for i in range(n - 1, 1, -1):
        f = np.array([c * c, 2.0 * c - mu[i - 1], 1.0])
        deg_i = 2 ** (n - i + 1)
        tnodes = _cheb_nodes(deg_i + 1, 1.0)
        tvals = np.array([_syl_det_at(cur, t, f) for t in tnodes])
        cur = _fit_monomial(tnodes, tvals, deg_i, 1.0)
        levels.append(cur)
    return levels


def _collapse_value(mu: np.ndarray, c: float) -> float:
    n = mu.size
    cur = _chain_levels(mu, c)[-1]
    if n == 1:
        return float(_poly.polyval(1.0, cur))
    f = np.array([c * c, 2.0 * c - mu[0], 1.0])
    return _syl_det_at(cur, 1.0, f)


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


def chain_value(mu, c: float) -> float:
    """Evaluate the fully eliminated polynomial at one multiplier value.

    Collapses the elimination chain by direct determinant evaluation, so the
    result is exact up to roundoff and free of interpolation error.  Useful
    for back-substitution checks and for sharpening roots found on the
    interpolated polynomial.
    """
    mu = _check_spectrum(mu)
    return _collapse_value(mu, float(c))


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
        vals = np.array([_collapse_value(mu, c) for c in nodes])
        coeffs = _fit_monomial(nodes, vals, target, halfwidth)
        noise_floor = 1e-12
    coeffs = coeffs / np.max(np.abs(coeffs))
    # Interpolation junk in the leading slot would misstate the degree; for
    # generic spectra the true leading coefficient sits far above this floor.
    top = coeffs.size
    while top > 1 and abs(coeffs[top - 1]) <= noise_floor:
        top -= 1
    return UniPoly(coeffs[:top], "c")


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
