"""Nearest matrices of determinant one, by eliminating the multiplier chain.

For invertible real u = U diag(sigma) V^t the critical points of
x -> |u - x|^2 on the determinant-one locus satisfy x^t(u - x) = c I for a
scalar c, and every real one is x = U diag(z) V^t where z_i solves

    z_i^2 - sigma_i z_i + c = 0,    |z_1 ... z_n| = 1.

The multipliers c are located as the real roots of one univariate
polynomial of degree n 2^n, obtained by eliminating lambda_i = z_i^2 from
the quadratics in the eigenvalues mu_i = sigma_i^2 of u^t u; its roots are
companion-matrix eigenvalues.  They are refined on the branch equation
h_eps = sum log |z_i^eps| = 0, where the sign vector eps picks the larger
(+1) or smaller (-1) root z_i^eps.  The unknown is not c but s, a root of
the last quadratic, with c = s (sigma_n - s): z_n(c) has a square-root
branch point at the fold c = sigma_n^2 / 4, while z_n(s) is s or
sigma_n - s, so the fold is an ordinary point of the Newton iteration,
and s < 0 is the same as c < 0.

The real points split at c = 0, and on c < 0 a proved law fixes them:
there z_i^+ falls and |z_i^-| grows in c, so h_eps is monotone, and it runs
from +inf to -inf on every mixed eps and from +inf to log |det u| on the
all-plus one as c rises from -inf to 0.  So each mixed eps has exactly one root at c < 0, the
all-plus eps one iff |det u| = prod sigma < 1, and when |det u| <= 1 no
point has c > 0.  Each of these roots is refined by one Newton row kept in
its bracket (`_negative_rows`), started from the nearest located root.  A
row that does not settle, or a count at c < 0 other than 2^n - 1 plus
[|det u| < 1], raises DegeneracyError.  Only when |det u| >= 1 (within
1e-9) can there be points at c > 0; no law counts those, so every located
root is also refined on every branch (`_branch_newton`), and the rows of
both kinds that reached one point are told apart before any lift, by c and
the branch bits z_i > sigma_i / 2 (i < n): off the unit scale distinct
points lie closer in x than any merge radius safe at unit scale, and c
alone is not enough (z_i^+ z_i^- = c, so on |c| = 1 the sign vectors eps
and -eps can both give |z_1 ... z_n| = 1), while c and the bits fix z_n.
The rows are sorted by (bits, c), split wherever the next c is more than
1e-12 (1 + |c|) away, and each run keeps its lowest row.

The frame (U, sigma, V) is the SVD of u itself, so x = U diag(z) V^t is
one stacked product and the frame's accuracy does not depend on the
condition number of u^t u.  For SL_n the kept rows are narrowed to det +1
before the lift, by the frame's sign rule
det(U diag(z) V^t) = det U det V^t prod sign(z_i) (`_det_plus_rows`,
shared with SO_n).  The kept points are certified in one batch, on SL^pm
or SL_n, so every point is a CriticalPoint with its multiplier c,
distance, det sign and residual.  Sizes up to CHAIN_MAX_N = 4 (degree 64)
are supported; larger ones are refused before any work.
"""

from __future__ import annotations

import numpy as np

from .critsearch import CriticalPoint, GroupSpec, _certify_batch
from .errors import DegeneracyError, InputError, UnsupportedError
from .matcore import _check_positive_int, as_square, random_general, sym_eig
from .orthonear import _det_plus_rows, _lift, _sign_table
from .polyres import CHAIN_MAX_N, distinct_root_count, poly_roots, resultant_chain

_REAL_IM_TOL = 1e-8


def _branch_values(sigma: np.ndarray, s: np.ndarray, eps: np.ndarray):
    """c (R,), z (R, n) and sqrt(sigma_i^2 - 4c) for i < n (R, n - 1) at
    rows s on sign vectors eps: z_n is s on eps_n = -1 and sigma_n - s on
    eps_n = +1, c = s (sigma_n - s), and the smaller root of the other
    quadratics is taken as 2c / (sigma_i + sqrt), which does not cancel."""
    c = s * (sigma[-1] - s)
    root = np.sqrt(sigma[:-1] * sigma[:-1] - 4.0 * c[:, None])
    head = np.where(eps[:, :-1] > 0.0, 0.5 * (sigma[:-1] + root), 2.0 * c[:, None] / (sigma[:-1] + root))
    tail = np.where(eps[:, -1] > 0.0, sigma[-1] - s, s)
    return c, np.column_stack([head, tail]), root


def _newton_step(sigma: np.ndarray, s: np.ndarray, eps: np.ndarray):
    """h = sum log |z_i| (R,) at rows s on sign vectors eps, and the Newton
    step h / h'(s), not finite where a z_i is zero or h is flat.  The
    slope h' = -eps_n / z_n - (sigma_n - 2s) sum_{i<n} eps_i / (z_i sqrt(sigma_i^2 - 4c))
    is finite on the fold, and all arithmetic is per row."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, z, root = _branch_values(sigma, s, eps)
        head = np.sum(eps[:, :-1] / (z[:, :-1] * root), axis=1)
        slope = -eps[:, -1] / z[:, -1] - (sigma[-1] - 2.0 * s) * head
        h = np.sum(np.log(np.abs(z)), axis=1)
        return h, h / slope


def _branch_newton(sigma: np.ndarray, cs: np.ndarray):
    """Refine located multipliers cs on the branch equation; returns the
    converged (c, z) rows, root by root and branch by branch.

    This tiling serves the c > 0 piece only (`_sl_points` calls it when
    prod sigma >= 1 - 1e-9): there no law says how many roots a branch has, so
    each root starts Newton on all 2^n sign vectors eps, because a root
    the chain placed far from its true value may lie nearest another
    branch's zero.  The unknown is s, started at the smaller root of
    z^2 - sigma_n z + c (its square root clipped at 0 beyond the fold).
    Every real s gives c = s (sigma_n - s) <= sigma_n^2 / 4, so every z_i
    stays real (sigma_i > sigma_n for i < n), and `_newton_step`'s slope is
    finite on the fold.  Every row keeps its own scale 1 + |c_0| and its
    stopping rules, so a root refines to the same bits alone or in a batch.
    A row converges when its Newton step is below 1e-13 of its scale and
    |h| < 1e-12.  A row with a zero z_i or a flat h, or one not converged
    after 30 steps, is dropped.
    """
    table = _sign_table(sigma.size)
    c0 = np.repeat(cs, table.shape[0])
    s = 2.0 * c0 / (sigma[-1] + np.sqrt(np.maximum(sigma[-1] * sigma[-1] - 4.0 * c0, 0.0)))
    eps = np.tile(table, (cs.size, 1))
    scale = 1.0 + np.abs(c0)
    done = np.zeros(s.size, dtype=bool)
    active = np.arange(s.size)
    for _ in range(30):
        h, step = _newton_step(sigma, s[active], eps[active])
        live = np.isfinite(step)
        active, h, step = active[live], h[live], step[live]
        s[active] -= step
        settled = (np.abs(step) < 1e-13 * scale[active]) & (np.abs(h) < 1e-12)
        done[active[settled]] = True
        active = active[~settled]
        if active.size == 0:
            break
    return _branch_values(sigma, s[done], eps[done])[:2]


def _negative_rows(sigma: np.ndarray, cs: np.ndarray, table: np.ndarray):
    """The root at c < 0 of each sign vector in table, as (c, z) rows in
    table order; none when cs holds no negative located root.

    On s < 0 every |z_i| grows as s falls, so h = sum log |z_i| decreases
    in s: each branch has at most one root there, and it lies in
    [s_lo, 0), where c(s_lo) = -(1 + sigma_1).  That bounds every root's
    |c|: some |z_i| <= 1 as the product is 1, and |c| = |z_i| |sigma_i - z_i|.
    Each row starts at the negative located root with the least |h| on its
    branch, and takes Newton steps inside its bracket: h > 0 raises the
    lower end, h < 0 lowers the upper one, and a step that leaves the
    bracket bisects instead.  The stopping rules and the 30-step budget are
    `_branch_newton`'s; all arithmetic is per row, so a branch refines to
    the same bits alone or in a batch.  A row that does not settle raises
    DegeneracyError naming its branch.
    """
    neg = cs[cs < 0.0]
    if neg.size == 0:
        return np.zeros(0), np.zeros((0, sigma.size))
    k = table.shape[0]
    s0 = 2.0 * neg / (sigma[-1] + np.sqrt(sigma[-1] * sigma[-1] - 4.0 * neg))
    h = np.abs(_newton_step(sigma, np.repeat(s0, k), np.tile(table, (neg.size, 1)))[0]).reshape(neg.size, k)
    s = s0[np.argmin(np.where(np.isnan(h), np.inf, h), axis=0)]
    scale = 1.0 + np.abs(s * (sigma[-1] - s))
    r = 1.0 + sigma[0]
    lo = np.minimum(-2.0 * r / (sigma[-1] + np.sqrt(sigma[-1] * sigma[-1] + 4.0 * r)), s)
    hi = np.zeros(k)
    active = np.arange(k)
    for _ in range(30):
        h, step = _newton_step(sigma, s[active], table[active])
        lo[active] = np.where(h > 0.0, s[active], lo[active])
        hi[active] = np.where(h < 0.0, s[active], hi[active])
        settled = (np.abs(step) < 1e-13 * scale[active]) & (np.abs(h) < 1e-12)
        new = s[active] - step
        inside = settled | ((new >= lo[active]) & (new < hi[active]))
        s[active] = np.where(inside, new, 0.5 * (lo[active] + hi[active]))
        active = active[~settled]
        if active.size == 0:
            return _branch_values(sigma, s, table)[:2]
    signs = "".join("+" if e > 0 else "-" for e in table[active[0]])
    raise DegeneracyError(f"branch {signs} did not settle on c < 0")


def _check_n(n: int) -> None:
    if n > CHAIN_MAX_N:
        raise UnsupportedError(f"determinant-one pipeline supports n <= {CHAIN_MAX_N}")


def _sl_points(u, plus: bool) -> list[CriticalPoint]:
    """`sl_critical_points`, or with plus its det +1 rows, selected by
    `_det_plus_rows` before the lift and certified on SL."""
    u = as_square(u, "u")
    n = u.shape[0]
    _check_n(n)
    mu = sym_eig(u.T @ u).values
    frame = np.linalg.svd(u)
    sigma = frame[1]
    if float(mu[-1]) <= 0.0 or float(sigma[-1]) <= 0.0:
        raise DegeneracyError("u^t u must be positive definite")
    roots = poly_roots(resultant_chain(mu))
    real = roots.real[np.abs(roots.imag) < _REAL_IM_TOL * (1.0 + np.abs(roots.real))]
    volume = float(np.prod(sigma))
    # The all-plus branch (the table's first row) has a root at c < 0 iff
    # |det u| = prod sigma < 1.
    table = _sign_table(n)[0 if volume < 1.0 else 1 :]
    cs, zs = _negative_rows(sigma, real, table)
    keep = np.arange(cs.size)
    if volume >= 1.0 - 1e-9:
        # Points at c > 0 exist only when |det u| > 1; the margin keeps
        # |det u| = 1 (x = u at c = 0) on this path.  The tiling's rows come
        # first, so a point it shares with a row at c < 0 keeps its bits.
        c_pos, z_pos = _branch_newton(sigma, real)
        cs, zs = np.r_[c_pos, cs], np.vstack([z_pos, zs])
        bits = (zs[:, :-1] > 0.5 * sigma[:-1]) @ (1 << np.arange(n - 1))
        order = np.lexsort((cs, bits))
        gap = np.diff(cs[order]) > 1e-12 * (1.0 + np.abs(cs[order][1:]))
        runs = np.flatnonzero(np.r_[True, gap | (np.diff(bits[order]) != 0)])
        keep = np.sort(np.minimum.reduceat(order, runs))
    if keep.size == 0:
        raise DegeneracyError("no real critical point recovered")
    below = int(np.count_nonzero(cs[keep] < 0.0))
    # Within 1e-9 of |det u| = 1 the all-plus root has |c| near rounding, so
    # it may fall on either side of c = 0.
    law = {2**n - 1 + (volume < 1.0 - 1e-9), 2**n - 1 + (volume < 1.0 + 1e-9)}
    if below not in law:
        raise DegeneracyError(f"{below} real critical points at c < 0, the proved count is {max(law)}")
    if plus:
        keep = keep[_det_plus_rows(frame, zs[keep])]
        if keep.size == 0:
            raise DegeneracyError("no det +1 critical point recovered")
    g = GroupSpec("sl" if plus else "sl_pm", n)
    points = _certify_batch(_lift(frame, zs[keep]), u, g, c=cs[keep].tolist())
    points.sort(key=lambda p: (p.distance_sq, p.c))
    return points


def sl_critical_points(u) -> list[CriticalPoint]:
    """All real critical points of the squared distance from u to SL^pm,
    found as the module docstring describes, certified on SL^pm with c set
    and sorted by distance, then c.  Sizes above CHAIN_MAX_N are refused
    before any work."""
    return _sl_points(u, plus=False)


def sl_plus_critical_points(u) -> list[CriticalPoint]:
    """The real critical points over SL_n: the det +1 points of
    `sl_critical_points`, in its order, certified on SL_n.  Finding none
    raises DegeneracyError, as SL^pm does."""
    return _sl_points(u, plus=True)


def nearest_sl(u, component: str = "pm") -> CriticalPoint:
    """Minimum-distance critical point over SL^pm ("pm") or det = +1 only ("plus")."""
    if component not in ("pm", "plus"):
        raise InputError(f"component must be 'pm' or 'plus', got {component!r}")
    return _sl_points(u, plus=component == "plus")[0]


def sl_ed_degree(n: int, seed: int) -> int:
    """Distinct complex critical multipliers for a random u; expect n 2^n."""
    _check_positive_int(n, "sl_ed_degree: n")
    _check_n(n)
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
