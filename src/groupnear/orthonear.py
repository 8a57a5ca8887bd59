"""Closed-form nearest matrices and full critical-point enumerations for the
orthogonal, special orthogonal, and unitary groups.

The critical points of the squared Frobenius distance from a data matrix
u = U diag(sigma) V^* to one of these groups are x = U diag(eps) V^*, one
per sign vector eps in {+1, -1}^n, and the all-positive one is the global
minimizer.  One SVD of u gives all 2^n; the Gram matrix u^* u, which squares
the condition number, is never formed.  Distances for complex input are
reported in the real metric (twice the complex squared norm).

The special orthogonal points are the eps with det(U diag(eps) V^t) =
det U det V^t prod eps_i = +1, chosen before the lift by `_det_plus_rows`;
the determinant-one pipeline (`slnear`) selects its det +1 rows by the
same rule.  Every solver here runs one body, `_closed_form`.
"""

from __future__ import annotations

import functools

import numpy as np

from .critsearch import CriticalPoint, GroupSpec, _certify_batch
from .errors import ConvergenceError, DegeneracyError, InputError, SingularityError, UnsupportedError
from .matcore import as_square

# Minimum gap between singular values, relative to max(1, sigma_1); below
# this the sign enumeration is ill-posed and we refuse rather than perturb.
GAP_TOL = 1e-8

# Largest sizes the full enumerations accept.  Their (2^n, n, n) stacks grow
# as 2^n n^2: with BLAS at 1 thread on a 2-core x86 machine, n = 14
# orthogonal took 0.10-0.17 s and 113 MB peak over 3 runs (n = 12: 0.03 s,
# 51 MB) and m = 12 unitary, which certifies 2m x 2m real embeddings,
# 0.11-0.15 s and 119 MB.  Special orthogonal lifts only its 2^(n-1)
# rotations: n = 14 took 0.07-0.08 s and 77 MB (n = 12: 0.03 s, 45 MB), but
# n = 15 took 0.24-0.31 s and 128 MB, as much as orthogonal at its limit,
# so it keeps the same limit.
_MAX_ORTHOGONAL_N = 14
_MAX_UNITARY_M = 12


def _svd_frame(u: np.ndarray):
    """(U, sigma, Vh) of u, sigma descending.  Refuses singular u by its
    squared singular values (the Gram spectrum) and clustered u by the gaps
    of sigma itself: a gap of sigma squared shrinks with sigma, so small
    but well-separated singular values would otherwise count as clustered."""
    try:
        frame_u, sigma, vh = np.linalg.svd(u)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("SVD of the data matrix did not converge") from exc
    # Python floats: each test is a few scalar operations, not numpy calls.
    s = sigma.tolist()
    first, last = s[0], s[-1]
    if last * last <= 0.0 or last * last < 1e-14 * max(1.0, first * first):
        raise SingularityError("data matrix is singular to working precision")
    if len(s) > 1 and min(map(float.__sub__, s, s[1:])) < GAP_TOL * max(1.0, first):
        raise DegeneracyError("singular values are too clustered to enumerate")
    return frame_u, sigma, vh


@functools.cache
def _sign_table(n: int) -> np.ndarray:
    """All 2^n sign vectors (2^n, n) in lexicographic order, +1 before -1;
    cached per n, read-only."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    out = 1.0 - 2.0 * bits
    out.flags.writeable = False
    return out


def _lift(frame, signs: np.ndarray) -> np.ndarray:
    """The points U diag(eps) V^* (B, n, n) for the sign vectors signs (B, n)."""
    frame_u, _, vh = frame
    return np.matmul(frame_u[None, :, :] * signs[:, None, :], vh)


def _det_plus_rows(frame, rows: np.ndarray) -> np.ndarray:
    """Mask (B,) of the rows r (B, n) whose lift U diag(r) V^* has det +1,
    by det(U diag(r) V^*) = det U det V^* prod sign(r_i): the one det-sign
    rule for SO and SL, read from the frame before any point is built."""
    frame_u, _, vh = frame
    return np.prod(np.sign(rows), axis=1) * np.linalg.det(frame_u @ vh) > 0.0


def _closed_form(u, name: str, kind: str, limit: int | None = None) -> list[CriticalPoint]:
    """The certified points U diag(eps) V^* on GroupSpec(kind, .), eps in
    lexicographic order, on SO only the det +1 rows; each det sign is read
    from the frame by `_det_plus_rows`.
    With a limit, all of `_sign_table` after refusing sizes above it; without,
    the nearest point: the first kept of the table's first two rows, built
    alone.  Unitary input is read as complex, any other must be real."""
    u = as_square(u, "u")
    if kind == "unitary_embedded":
        u = u.astype(np.complex128)
    elif np.iscomplexobj(u):
        raise InputError(f"{name}: real input required")
    n = u.shape[0]
    if limit is not None and n > limit:
        raise UnsupportedError(f"{name} supports n <= {limit}, got n = {n}")
    frame = _svd_frame(u)
    # Sigma is descending, so the second row flips the smallest singular value.
    rows = np.array([[1.0] * n, [1.0] * (n - 1) + [-1.0]]) if limit is None else _sign_table(n)
    # Complex points take no mask: their embedded det is always +1.
    plus = None if kind == "unitary_embedded" else _det_plus_rows(frame, rows)
    if kind == "special_orthogonal":
        rows, plus = rows[plus], plus[plus]
    if limit is None:
        rows = rows[:1]
    g = GroupSpec(kind, 2 * n if kind == "unitary_embedded" else n)
    return _certify_batch(_lift(frame, rows), u, g, det_plus=None if plus is None else plus[: len(rows)])


def nearest_orthogonal(u) -> CriticalPoint:
    """Closest orthogonal matrix to u: the all-positive-sign critical point."""
    return _closed_form(u, "nearest_orthogonal", "orthogonal")[0]


def enumerate_orthogonal_critical(u) -> list[CriticalPoint]:
    """All 2^n critical points over the orthogonal group, one per sign vector,
    in lexicographic sign order (+1 before -1).  Sizes above
    _MAX_ORTHOGONAL_N are refused before any work."""
    return _closed_form(u, "enumerate_orthogonal_critical", "orthogonal", _MAX_ORTHOGONAL_N)


def enumerate_special_orthogonal_critical(u) -> list[CriticalPoint]:
    """The 2^(n-1) det +1 points of `enumerate_orthogonal_critical`, in its order,
    certified on SO_n.  Sizes above _MAX_ORTHOGONAL_N are refused before any work."""
    return _closed_form(u, "enumerate_special_orthogonal_critical", "special_orthogonal", _MAX_ORTHOGONAL_N)


def nearest_special_orthogonal(u) -> CriticalPoint:
    """Closest rotation to u: the polar factor when it has det +1, else the
    point with the smallest singular value's sign flipped."""
    return _closed_form(u, "nearest_special_orthogonal", "special_orthogonal")[0]


def nearest_unitary(u) -> CriticalPoint:
    """Closest unitary matrix to a complex square matrix."""
    return _closed_form(u, "nearest_unitary", "unitary_embedded")[0]


def enumerate_unitary_critical(u) -> list[CriticalPoint]:
    """All 2^m unitary critical points, lexicographic sign order.  Sizes
    above _MAX_UNITARY_M are refused before any work."""
    return _closed_form(u, "enumerate_unitary_critical", "unitary_embedded", _MAX_UNITARY_M)
