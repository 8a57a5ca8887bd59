"""Nearest matrices of determinant one, by isolating the branch equations.

For invertible real u = U diag(sigma) V^t the critical points of
x -> |u - x|^2 on the determinant-one locus satisfy x^t(u - x) = c I for a
scalar c, and every real one is x = U diag(z) V^t where z_i solves

    z_i^2 - sigma_i z_i + c = 0,    |z_1 ... z_n| = 1.

A sign vector eps picks the larger (+1) or smaller (-1) root z_i^eps, and
each real point is one root of h_eps = sum log |z_i^eps| = 0.  The unknown
is s, a root of the last quadratic, with c = s (sigma_n - s): z_n(s) is s
or sigma_n - s, so the fold c = sigma_n^2 / 4, a branch point of z_n(c),
is an ordinary point, and s < 0 is the same as c < 0.

On c < 0, z_i^+ falls and |z_i^-| grows in c, so h_eps falls in s: from
+inf to -inf on every mixed eps, and to log |det u| on the all-plus one.
So each mixed eps has one root at c < 0, the all-plus one iff
|det u| = prod sigma < 1, and when |det u| <= 1 no point has c > 0.  These
rows start near real roots of the chain, a polynomial of degree n 2^n in c
that eliminates lambda_i = z_i^2 from the quadratics in the eigenvalues
mu_i = sigma_i^2 of u^t u (`_real_rows`).  On c > 0 every point is isolated
in a bracket of s (`_positive_brackets`), and for generic u with
|det u| > 1 their count is odd: the all-plus h falls from log |det u| > 0,
each mixed h runs from -inf to -inf.  Every row is refined by one bracketed
Newton loop (`_bracketed_newton`); a count that breaks either law raises
DegeneracyError.

The frame (U, sigma, V) is `orthonear._svd_frame(u)`, taken right after
the size check with the singular and gap refusals of O_n, SO_n and U_n, so
x = U diag(z) V^t is one stacked product, as accurate whatever the
condition of u^t u, which only feeds the chain.  Every
point's det sign comes from the sign rule
det(U diag(z) V^t) = det U det V^t prod sign(z_i) (`_det_plus_rows`, shared
with O_n and SO_n), not from the dense x, whose det can round to either
sign when z_n is tiny; for SL_n the rows are narrowed to det +1 by the same
rule before the lift.  The points are certified in one batch, on SL^pm or
SL_n, as CriticalPoints with multiplier c, distance, det sign and
residual.  Sizes up to CHAIN_MAX_N = 4 (degree 64) are supported; larger
ones are refused before any work.
"""

from __future__ import annotations

import numpy as np

from .critsearch import CriticalPoint, GroupSpec, _certify_batch, _require_real
from .errors import ConditioningError, DegeneracyError, UnsupportedError
from .matcore import _check_positive_int, as_square, random_general, sym_eig
from .orthonear import _det_plus_rows, _lift, _sign_table, _svd_frame
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


def _bracketed_newton(sigma, s, eps, lo, hi, falls):
    """(c, z), in row order, of the one root of h_eps in each row's bracket
    [lo, hi), started at s; falls is +1 where h falls in s, -1 where it rises.

    A point below the root raises the lower end, one above it lowers the
    upper end, and a Newton step that leaves the bracket bisects instead.
    A row settles when its step is below 1e-13 (1 + |c_0|) and |h| < 1e-12,
    within 30 steps, or raises DegeneracyError naming its branch and side
    of c = 0.  All arithmetic is per row: alone or in a batch, same bits.
    """
    scale = 1.0 + np.abs(s * (sigma[-1] - s))
    s, lo, hi = s.copy(), lo.copy(), hi.copy()
    active = np.arange(s.size)
    for _ in range(30):
        h, step = _newton_step(sigma, s[active], eps[active])
        below = falls[active] * h
        lo[active] = np.where(below > 0.0, s[active], lo[active])
        hi[active] = np.where(below < 0.0, s[active], hi[active])
        settled = (np.abs(step) < 1e-13 * scale[active]) & (np.abs(h) < 1e-12)
        new = s[active] - step
        inside = settled | ((new >= lo[active]) & (new < hi[active]))
        s[active] = np.where(inside, new, 0.5 * (lo[active] + hi[active]))
        active = active[~settled]
        if active.size == 0:
            return _branch_values(sigma, s, eps)[:2]
    signs = "".join("+" if e > 0 else "-" for e in eps[active[0]])
    raise DegeneracyError(f"branch {signs} did not settle on c {'<' if lo[active[0]] < 0.0 else '>'} 0")


def _positive_brackets(sigma: np.ndarray):
    """Every root at c > 0, isolated on boxes of s in [0, sigma_n / 2]: as
    Newton rows (s, eps, lo, hi, falls) from the midpoints of brackets with
    one root strictly inside, and as (c, z) rows at box ends, one per z.

    Each t_i = log z_i is monotone in s here, so h lies between the sums of
    min and of max(t_i(a), t_i(b)).  The slope of h has the sign of
    c dh/dc = (n - sum eps_i psi_i) / 2, psi_i = sigma_i / sqrt(sigma_i^2 - 4c)
    and psi_n = sigma_n / (sigma_n - 2s) rising, so the box ends bound it;
    the all-plus h, a sum of falling terms, falls.  A box whose h bounds
    exclude 0 is dropped; with a one-signed slope and finite ends it is a
    bracket iff h changes sign strictly between them and neither is a root,
    |h| <= 16 eps (sum |t_i| + n): that covers the fold, where eps_n = +-1
    meet, and x = u at c = 0 when |det u| = 1.  Any other box is split at
    its midpoint, or at b / 256 for [0, b] on a branch with a minus sign,
    where h(0) = -inf.  Boxes left after 200 levels, or more than 64 per
    sign vector (a root h barely crosses makes them double at every level
    once they are as narrow as rounding), raise DegeneracyError.
    """
    n, eps = sigma.size, _sign_table(sigma.size)
    a, b = np.zeros(eps.shape[0]), np.full(eps.shape[0], 0.5 * sigma[-1])
    rows, ends = [], []
    for _ in range(200):
        if a.size == 0 or a.size > 64 * 2**n:
            break
        m, s, table, plus = a.size, np.r_[a, b], np.vstack([eps, eps]), eps > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            _, z, root = _branch_values(sigma, s, table)
            t = np.log(z)
            psi = np.column_stack([sigma[:-1] / root, sigma[-1] / (sigma[-1] - 2.0 * s)])
            falls = np.all(plus, axis=1) | (n - np.sum(np.where(plus, psi[:m], -psi[m:]), axis=1) < 0.0)
            monotone = falls | (n - np.sum(np.where(plus, psi[m:], -psi[:m]), axis=1) > 0.0)
        h = np.sum(t, axis=1)
        at_root = np.isfinite(h) & (np.abs(h) <= 16.0 * np.finfo(float).eps * (np.sum(np.abs(t), axis=1) + n))
        ends.append((s[at_root], table[at_root]))
        decided = monotone & np.isfinite(h[:m]) & np.isfinite(h[m:])
        found = decided & ((h[:m] > 0.0) != (h[m:] > 0.0)) & ~at_root[:m] & ~at_root[m:]
        rows.append((0.5 * (a[found] + b[found]), eps[found], a[found], b[found], np.where(falls[found], 1.0, -1.0)))
        low, high = np.sum(np.sort([t[:m], t[m:]], axis=0), axis=2)
        split = (low <= 0.0) & (high >= 0.0) & ~decided
        a, b, eps = a[split], b[split], eps[split]
        mid = np.where((a == 0.0) & np.any(eps < 0.0, axis=1), b / 256.0, 0.5 * (a + b))
        a, b, eps = np.r_[a, mid], np.r_[mid, b], np.vstack([eps, eps])
    if a.size:
        raise DegeneracyError(f"the points at c > 0 were not isolated: {a.size} boxes left")
    c, z, _ = _branch_values(sigma, *(np.concatenate(part) for part in zip(*ends)))
    _, first = np.unique(z, axis=0, return_index=True)
    return [np.concatenate(part) for part in zip(*rows)], (c[first], z[first])


def _asymptotic_starts(sigma: np.ndarray, table: np.ndarray) -> np.ndarray:
    """s (R,) near the c < 0 root of each sign vector of table, from the
    small-|c| asymptotes z_i^+ ~ sigma_i and z_i^- ~ c / sigma_i: on minus
    set M, prod |z_i| = 1 gives
    log |c| = (sum_{i in M} log sigma_i - sum_{i not in M} log sigma_i) / |M|,
    and the all-plus row takes the linearised c = log prod sigma /
    sum sigma_i^-2.  c is clipped to >= -(1 + sigma_1), where every c < 0
    root lies, and mapped to s = 2c / (sigma_n + sqrt(sigma_n^2 - 4c))."""
    logs, minus = np.log(sigma), table < 0.0
    size = np.count_nonzero(minus, axis=1)
    log_c = np.minimum(np.where(minus, logs, -logs).sum(axis=1) / np.maximum(size, 1), np.log(1.0 + sigma[0]))
    c = np.maximum(np.where(size > 0, -np.exp(log_c), logs.sum() / np.sum(sigma**-2.0)), -1.0 - sigma[0])
    return 2.0 * c / (sigma[-1] + np.sqrt(sigma[-1] * sigma[-1] - 4.0 * c))


def _real_rows(sigma: np.ndarray, located: np.ndarray, volume: float):
    """(c, z) of every real point: the c < 0 rows in `_sign_table` order
    (all-plus only when volume = prod sigma < 1), then the c > 0 rows.

    Each root at c < 0 lies in [s_lo, 0), c(s_lo) = -(1 + sigma_1), as some
    |z_i| <= 1 and |c| = |z_i| |sigma_i - z_i|.  Its row starts at the
    negative located root with the least |h| on its branch (s_lo drops to
    it if below), or, if there is none, at `_asymptotic_starts`.
    """
    table = _sign_table(sigma.size)[0 if volume < 1.0 else 1 :]
    k, r = table.shape[0], 1.0 + sigma[0]
    s_lo = -2.0 * r / (sigma[-1] + np.sqrt(sigma[-1] * sigma[-1] + 4.0 * r))
    neg = located[located < 0.0]
    if neg.size:
        s0 = 2.0 * neg / (sigma[-1] + np.sqrt(sigma[-1] * sigma[-1] - 4.0 * neg))
        h = np.abs(_newton_step(sigma, np.repeat(s0, k), np.tile(table, (neg.size, 1)))[0]).reshape(neg.size, k)
        s = s0[np.argmin(np.where(np.isnan(h), np.inf, h), axis=0)]
    else:
        s = _asymptotic_starts(sigma, table)
    rows = (s, table, np.minimum(s_lo, s), np.zeros(k), np.ones(k))
    if volume < 1.0:
        return _bracketed_newton(sigma, *rows)
    positive, (c_end, z_end) = _positive_brackets(sigma)
    c, z = _bracketed_newton(sigma, *(np.concatenate([x, y]) for x, y in zip(rows, positive)))
    return np.r_[c, c_end], np.vstack([z, z_end])


def _check_n(n: int) -> None:
    if n > CHAIN_MAX_N:
        raise UnsupportedError(f"determinant-one pipeline supports n <= {CHAIN_MAX_N}")


def _sl_points(u, plus: bool) -> list[CriticalPoint]:
    """`sl_critical_points`, or with plus its det +1 rows, selected by
    `_det_plus_rows` before the lift and certified on SL; every det sign is
    read by that rule.  `_svd_frame` refuses singular or clustered u before
    the Gram product; a u whose u^t u has an overflowing squared norm (|u|
    from about 1e77) raises ConditioningError before `sym_eig`."""
    name = "sl_plus_critical_points" if plus else "sl_critical_points"
    u = as_square(u, "u")
    _require_real(u, name, "u")
    n = u.shape[0]
    _check_n(n)
    frame = _svd_frame(u)
    sigma = frame[1]
    gram = u.T @ u
    with np.errstate(over="ignore"):
        finite = np.isfinite(gram.ravel() @ gram.ravel())
    if not finite:  # sym_eig would refuse it as malformed input
        raise ConditioningError(f"{name}: u^t u leaves the double-precision range")
    mu = sym_eig(gram).values
    roots = poly_roots(resultant_chain(mu))
    real = roots.real[np.abs(roots.imag) < _REAL_IM_TOL * (1.0 + np.abs(roots.real))]
    volume = float(np.prod(sigma))
    cs, zs = _real_rows(sigma, real, volume)
    below, above = int(np.count_nonzero(cs < 0.0)), int(np.count_nonzero(cs > 0.0))
    # Within 1e-9 of |det u| = 1 the all-plus root has |c| near rounding, so
    # it may fall on either side of c = 0; the c > 0 parity holds outside.
    law = {2**n - 1 + (volume < 1.0 - 1e-9), 2**n - 1 + (volume < 1.0 + 1e-9)}
    if below not in law:
        raise DegeneracyError(f"{below} real critical points at c < 0, the proved count is {max(law)}")
    if volume > 1.0 + 1e-9 and above % 2 == 0:
        raise DegeneracyError(f"{above} real critical points at c > 0, the proved count is odd")
    det_plus = _det_plus_rows(frame, zs)
    if plus:
        cs, zs, det_plus = cs[det_plus], zs[det_plus], det_plus[det_plus]
        if cs.size == 0:
            raise DegeneracyError("no det +1 critical point recovered")
    g = GroupSpec("sl" if plus else "sl_pm", n)
    points = _certify_batch(_lift(frame, zs), u, g, c=cs.tolist(), det_plus=det_plus)
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


def nearest_sl(u) -> CriticalPoint:
    """The nearest critical point over SL^pm: the first of `sl_critical_points`."""
    return _sl_points(u, plus=False)[0]


def nearest_sl_plus(u) -> CriticalPoint:
    """The nearest critical point over SL_n: the first of `sl_plus_critical_points`."""
    return _sl_points(u, plus=True)[0]


def sl_ed_degree(n: int, seed: int) -> int:
    """Distinct complex critical multipliers for a random u; expect n 2^n."""
    _check_positive_int(n, "sl_ed_degree: n")
    _check_n(n)
    u = random_general(n, seed)
    mu = sym_eig(u.T @ u).values
    roots = poly_roots(resultant_chain(mu))
    return distinct_root_count(roots, tol=1e-7)
