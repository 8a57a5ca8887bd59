"""Nearest matrices of determinant one, by eliminating the multiplier chain.

For invertible real u = U diag(sigma) V^t the critical points of
x -> |u - x|^2 on the determinant-one locus satisfy x^t(u - x) = c I for a
scalar c, and every real one is x = U diag(z) V^t where z_i solves

    z_i^2 - sigma_i z_i + c = 0,    |z_1 ... z_n| = 1.

The multipliers c are located as the real roots of one univariate
polynomial of degree n 2^n, obtained by eliminating lambda_i = z_i^2 from
the quadratics in the eigenvalues mu_i = sigma_i^2 of u^t u; its roots are
companion-matrix eigenvalues.  Each real root is then refined on the
branch equation: the sign vector eps picks the larger (+1) or smaller (-1)
root z_i^eps(c), and Newton in c on h(c) = sum log |z_i^eps(c)| starts
from every root on every branch, all at once.  The frame (U, sigma, V) is
the SVD of u itself, so x = U diag(z) V^t is one stacked product and the
frame's accuracy does not depend on the condition number of u^t u.
The lifted points are certified in one batch, as the orthogonal and
unitary points are, so every point is a CriticalPoint with its multiplier
c, distance, det sign and residual.  Sizes up to CHAIN_MAX_N = 4 (degree
64) are supported; larger ones are refused before any work.
"""

from __future__ import annotations

import numpy as np

from .critsearch import CriticalPoint, GroupSpec, _certify_batch, _merge_representatives
from .errors import DegeneracyError, InputError, UnsupportedError
from .matcore import as_square, frobenius_norm, sym_eig
from .orthonear import _lift, _sign_table
from .polyres import CHAIN_MAX_N, distinct_root_count, poly_roots, resultant_chain

_REAL_IM_TOL = 1e-8


def _quadratic_roots(sigma: np.ndarray, c: np.ndarray):
    """Larger root, smaller root and sqrt(sigma_i^2 - 4c) of
    z^2 - sigma_i z + c = 0 for rows c (R,), each (R, n); the smaller root
    is taken as 2c / (sigma + sqrt), which does not cancel."""
    root = np.sqrt(sigma * sigma - 4.0 * c[:, None])
    return 0.5 * (sigma + root), 2.0 * c[:, None] / (sigma + root), root


def _branch_newton(sigma: np.ndarray, cs: np.ndarray):
    """Refine located multipliers cs on the branch equation; returns the
    converged (c, z) rows, root by root and branch by branch.

    Each c is clamped just below sigma_n^2 / 4, where every z_i is real,
    and starts Newton on all 2^n sign vectors eps: a root the chain placed
    far from its true value may lie nearest another branch's zero.  Newton
    in c on h(c) = sum log |z_i^eps(c)|, with
    h' = sum -eps_i / (z_i sqrt(sigma_i^2 - 4c)), runs for the rows still
    moving; every row keeps its own scale 1 + |c|, its stopping rules and
    its clamp, and all arithmetic is per row, so a root refines to the
    same bits alone or in a batch.  A row converges when its Newton step is
    below 1e-13 of its scale and |h| < 1e-12: a small step alone is not
    enough, since h' grows without bound at the clamp.  A row with a zero
    z_i or a flat h, or one not converged after 30 steps, is dropped.
    """
    cap = 0.25 * float(sigma[-1] * sigma[-1]) * (1.0 - 1e-12)
    table = _sign_table(sigma.size)
    c = np.repeat(np.minimum(cs, cap), table.shape[0])
    eps = np.tile(table, (cs.size, 1))
    scale = 1.0 + np.abs(c)
    done = np.zeros(c.size, dtype=bool)
    active = np.arange(c.size)
    for _ in range(30):
        big, small, root = _quadratic_roots(sigma, c[active])
        z = np.where(eps[active] > 0.0, big, small)
        live = np.all(z != 0.0, axis=1)
        active, z, root = active[live], z[live], root[live]
        slope = -np.sum(eps[active] / (z * root), axis=1)
        live = slope != 0.0
        active, z, slope = active[live], z[live], slope[live]
        h = np.sum(np.log(np.abs(z)), axis=1)
        step = h / slope
        c[active] = np.minimum(c[active] - step, cap)
        settled = (np.abs(step) < 1e-13 * scale[active]) & (np.abs(h) < 1e-12)
        done[active[settled]] = True
        active = active[~settled]
        if active.size == 0:
            break
    big, small, _ = _quadratic_roots(sigma, c[done])
    return c[done], np.where(eps[done] > 0.0, big, small)


def _fold_points(sigma: np.ndarray):
    """The (c, z) rows on the fold c = sigma_n^2 / 4 whose |prod z_i| is 1.

    There z_n = sigma_n / 2 is a double root and h' is infinite, so Newton
    from the clamp stalls short of such a point (u = [[2]] has one); it is
    tested on every branch directly instead.
    """
    table = _sign_table(sigma.size)
    c = np.full(table.shape[0], 0.25 * float(sigma[-1] * sigma[-1]))
    big, small, _ = _quadratic_roots(sigma, c)
    z = np.where(table > 0.0, big, small)
    on = np.abs(np.sum(np.log(np.abs(z)), axis=1)) < 1e-12
    return c[on], z[on]


def _check_n(n: int) -> None:
    if n > CHAIN_MAX_N:
        raise UnsupportedError(f"determinant-one pipeline supports n <= {CHAIN_MAX_N}")


def sl_critical_points(u) -> list[CriticalPoint]:
    """All real critical points of the squared distance from u to SL^pm.

    Eliminates the lambda chain on the eigenvalues of u^t u down to a
    single polynomial in c, and refines every real root on all 2^n branch
    equations (one batched Newton in c), where the fold c = sigma_n^2 / 4
    is tested directly; each converged (c, z) lifts to
    x = U diag(z) V^t on the SVD of u, and refinements that met at one
    point count once.
    The points are certified on SL^pm in one batch, with c set, and sorted
    by distance, then c.  Sizes above CHAIN_MAX_N are refused before any
    work.
    """
    u = as_square(u, "u")
    n = u.shape[0]
    _check_n(n)
    mu = sym_eig(u.T @ u).values
    frame = np.linalg.svd(u)
    if float(mu[-1]) <= 0.0 or float(frame[1][-1]) <= 0.0:
        raise DegeneracyError("u^t u must be positive definite")
    roots = poly_roots(resultant_chain(mu))
    real = roots.real[np.abs(roots.imag) < _REAL_IM_TOL * (1.0 + np.abs(roots.real))]
    cs, zs = _branch_newton(frame[1], real)
    fold_c, fold_z = _fold_points(frame[1])
    cs, zs = np.concatenate([cs, fold_c]), np.concatenate([zs, fold_z])
    if cs.size == 0:
        raise DegeneracyError("no real critical point recovered")
    xs = _lift(frame, zs)
    keep = _merge_representatives(xs.reshape(cs.size, -1), 1e-5 * (1.0 + frobenius_norm(u)))
    points = _certify_batch(xs[keep], u, GroupSpec("sl_pm", n), c=cs[keep].tolist())
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
