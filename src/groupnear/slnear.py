"""Nearest matrices of determinant one, by eliminating the multiplier chain.

For invertible real u the critical points of x -> |u - x|^2 on the
determinant-one locus satisfy x^t(u - x) = c I for a scalar c.  Writing
s = x^t x and diagonalising u^t u with eigenvalues mu_i, each eigenvalue
lambda_i of s solves the quadratic

    f_i = c^2 + (2c - mu_i) lambda_i + lambda_i^2 = 0

subject to lambda_1 ... lambda_n = 1.  Eliminating the lambda_i leaves a
univariate polynomial in c of degree n 2^n whose real roots index the real
critical points.  Its roots are companion-matrix eigenvalues; the real
ones are sharpened together against the exact determinant collapse (one
batched Newton iteration for all of them), then each is lifted to the
lambda_i by the quadratic formula and the unit-product branch, and
Newton-polished on the full system; x is then recovered as
u^{-t}(c I + s).  The lifted points are certified in one batch, as the
orthogonal and unitary points are, so every point is a CriticalPoint with
its multiplier c, distance, det sign and residual.  Sizes up to
CHAIN_MAX_N = 4 (degree 64) are supported; larger ones are refused before
any work.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .critsearch import CriticalPoint, GroupSpec, _certify_batch
from .errors import DegeneracyError, InputError, UnsupportedError
from .matcore import as_square, solve, sym_eig
from .polyres import (
    CHAIN_MAX_N,
    chain_value,
    distinct_root_count,
    poly_roots,
    resultant_chain,
)

_BRANCH_TOL = 1e-5
_BRANCH_MARGIN = 10.0
_REAL_IM_TOL = 1e-8


def _real_filter(roots: np.ndarray) -> list[float]:
    out = []
    for z in roots:
        if abs(z.imag) < _REAL_IM_TOL * (1.0 + abs(z.real)):
            out.append(float(z.real))
    return out


def _sharpen_roots(mu: np.ndarray, cs: list[float]) -> list[float]:
    """Newton-correct roots of the interpolated eliminant against the exact
    determinant collapse, all roots in one batch.  Roots of the
    degree-n*2^n fit inherit its interpolation error, not the root
    finder's: over 300 seeded n = 3 inputs this correction moved them by
    7e-8 relative in the median and by up to 6e-3, which is too loose for
    branch selection.

    Each iteration collapses the stacked values [c, c + h, c - h] of the
    roots still moving in one `chain_value` call.  Every root keeps its own
    rules: h = 1e-7 (1 + |c0|), and it stops when its derivative estimate
    is exactly zero, when its step drops below 1e-13 (1 + |c0|), or after
    8 iterations.  A root whose last Newton step is still above 1e-8
    relative is dropped: the interpolated root is then rounding noise, not
    a root of the collapse.  Over 1000 seeded n = 3 inputs, true roots
    ended with steps below 1e-11 and spurious ones above 1e-5.  The kept
    roots come back in input order.
    """
    c = np.array(cs, dtype=float)
    scale = 1.0 + np.abs(c)
    h = 1e-7 * scale
    step = np.zeros_like(c)
    active = np.arange(c.size)
    for _ in range(8):
        if active.size == 0:
            break
        ca, ha = c[active], h[active]
        val, up, down = chain_value(mu, np.stack((ca, ca + ha, ca - ha)))
        deriv = (up - down) / (2.0 * ha)
        moving = deriv != 0.0
        active, val, deriv = active[moving], val[moving], deriv[moving]
        step[active] = val / deriv
        c[active] -= step[active]
        active = active[np.abs(step[active]) >= 1e-13 * scale[active]]
    keep = np.abs(step) <= 1e-8 * scale
    return [float(v) for v in c[keep]]


def _lambda_candidates(mu: np.ndarray, c: float) -> list[tuple[float, float]] | None:
    """Both quadratic roots of f_i per eigenvalue, or None when complex."""
    pairs = []
    for m in mu:
        disc = m * (m - 4.0 * c)
        if disc < -1e-9 * (1.0 + m * m):
            return None
        root = math.sqrt(max(disc, 0.0))
        lo = ((m - 2.0 * c) - root) / 2.0
        hi = ((m - 2.0 * c) + root) / 2.0
        pairs.append((lo, hi))
    return pairs


def _select_branch(pairs: list[tuple[float, float]]) -> np.ndarray:
    """Resolve the 2^n sign ambiguity by the product constraint."""
    best = None
    best_err = math.inf
    runner = math.inf
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        lam = [pairs[i][k] for i, k in enumerate(choice)]
        prod = 1.0
        for v in lam:
            prod *= v
        err = abs(prod - 1.0)
        if err < best_err:
            runner = best_err
            best_err = err
            best = lam
        elif err < runner:
            runner = err
    if best_err >= _BRANCH_TOL:
        raise DegeneracyError(
            "no branch combination satisfies the unit-product constraint "
            f"(best residual {best_err:.3e})"
        )
    if runner <= _BRANCH_MARGIN * best_err:
        raise DegeneracyError(
            "ambiguous branch selection: runner-up product residual "
            f"{runner:.3e} within 10x of best {best_err:.3e}"
        )
    return np.asarray(best, dtype=float)


def _newton_polish(mu: np.ndarray, c: float, lam: np.ndarray) -> tuple[float, np.ndarray]:
    """Sharpen (c, lambda) on {f_i = 0, prod lambda = 1}."""
    n = mu.size
    z = np.concatenate(([c], lam))
    scale = 1.0 + float(np.max(mu))
    for _ in range(25):
        cc, ll = z[0], z[1:]
        f = cc * cc + (2.0 * cc - mu) * ll + ll * ll
        prod = float(np.prod(ll))
        res = np.concatenate((f, [prod - 1.0]))
        if float(np.max(np.abs(res))) < 1e-14 * scale:
            break
        jac = np.zeros((n + 1, n + 1))
        jac[:n, 0] = 2.0 * cc + 2.0 * ll
        jac[np.arange(n), np.arange(n) + 1] = 2.0 * cc - mu + 2.0 * ll
        jac[n, 1:] = prod / ll
        try:
            step = solve(jac, res)
        except DegeneracyError:
            break
        z = z - step
        if float(np.max(np.abs(step))) < 1e-15 * scale:
            break
    return float(z[0]), z[1:]


def _check_n(n: int) -> None:
    if n > CHAIN_MAX_N:
        raise UnsupportedError(f"determinant-one pipeline supports n <= {CHAIN_MAX_N}")


def sl_critical_points(u) -> list[CriticalPoint]:
    """All real critical points of the squared distance from u to SL^pm.

    Diagonalises u^t u, eliminates the lambda chain down to a single
    polynomial in c, and lifts each real root back to a matrix.  The points
    are certified on SL^pm in one batch, with c set, and sorted by distance,
    then c.  Sizes above CHAIN_MAX_N are refused before any work.
    """
    u = as_square(u, "u")
    n = u.shape[0]
    _check_n(n)
    eig = sym_eig(u.T @ u)
    mu = eig.values
    if float(mu[-1]) <= 0.0:
        raise DegeneracyError("u^t u must be positive definite")
    chain = resultant_chain(mu)
    roots = poly_roots(chain)
    ident = np.eye(n)
    xs, cs = [], []
    for c in _sharpen_roots(mu, _real_filter(roots)):
        pairs = _lambda_candidates(mu, c)
        if pairs is None:
            continue
        lam = _select_branch(pairs)
        c, lam = _newton_polish(mu, c, lam)
        if float(np.min(lam)) <= 0.0:
            raise DegeneracyError(
                f"non-positive lambda at real root c={c:.6g}"
            )
        s = eig.q @ np.diag(lam) @ eig.q.T
        xs.append(solve(u.T, c * ident + s))
        cs.append(c)
    if not xs:
        raise DegeneracyError("no real critical point recovered")
    points = _certify_batch(np.stack(xs), u, GroupSpec("sl_pm", n), c=cs)
    points.sort(key=lambda p: (p.distance_sq, p.c))
    return points


def nearest_sl(u, component: str = "pm") -> CriticalPoint:
    """Minimum-distance critical point over SL^pm ("pm") or det = +1 only ("plus")."""
    if component not in ("pm", "plus"):
        raise InputError(f"component must be 'pm' or 'plus', got {component!r}")
    points = sl_critical_points(u)
    if component == "plus":
        points = [p for p in points if p.det_sign == 1]
        if not points:
            raise DegeneracyError("no det +1 critical point recovered")
    return points[0]


def sl_ed_degree(n: int, seed: int) -> int:
    """Distinct complex critical multipliers for a random u; expect n 2^n."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError("n must be a positive integer")
    _check_n(n)
    from .matcore import random_general

    u = random_general(n, seed)
    mu = sym_eig(u.T @ u).values
    roots = poly_roots(resultant_chain(mu))
    return distinct_root_count(roots, tol=1e-7)


def smallest_c_check(u) -> dict:
    """Record whether the smallest-|c| real root is the distance minimizer.

    Evidence gathering only: the coincidence is conjectural, so the result
    carries the observed values rather than an assertion.
    """
    sols = sl_critical_points(u)
    by_abs = min(sols, key=lambda sol: abs(sol.c))
    minimizer = sols[0]
    holds = abs(by_abs.c - minimizer.c) <= 1e-7 * (1.0 + abs(minimizer.c))
    return {
        "holds": bool(holds),
        "c_min_abs": abs(by_abs.c),
        "c_of_minimizer": minimizer.c,
    }
