"""Closed-form nearest matrices and full critical-point enumerations for the
orthogonal, special orthogonal, and unitary groups.

The critical points of the squared Frobenius distance from a data matrix
u = U diag(sigma) V^* to one of these groups are x = U diag(eps) V^*, one
per sign vector eps in {+1, -1}^n, and the all-positive one is the global
minimizer.  One SVD of u gives all 2^n; the Gram matrix u^* u, which squares
the condition number, is never formed.  Distances for complex input are
reported in the real metric (twice the complex squared norm).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .critsearch import (
    CriticalPoint,
    GroupSpec,
    _certify_batch,
    embed_complex,
    membership_violation,
)
from .errors import ConvergenceError, DegeneracyError, InputError, SingularityError, UnsupportedError
from .matcore import as_square, det, frobenius_norm

# Minimum gap between singular values, relative to max(1, sigma_1); below
# this the sign enumeration is ill-posed and we refuse rather than perturb.
GAP_TOL = 1e-8

# Largest sizes the full enumerations accept.  Their (2^n, n, n) stacks grow
# as 2^n n^2: with BLAS at 1 thread, n = 14 orthogonal took 0.43 s and 161 MB
# peak (n = 12: 0.06 s, 60 MB) and m = 12 unitary, which certifies 2m x 2m
# real embeddings, 0.30 s and 133 MB (m = 13: 0.78 s, 272 MB).
_MAX_ORTHOGONAL_N = 14
_MAX_UNITARY_M = 12

__all__ = [
    "CriticalPoint",
    "GPerpDecomposition",
    "nearest_orthogonal",
    "enumerate_orthogonal_critical",
    "nearest_special_orthogonal",
    "nearest_unitary",
    "enumerate_unitary_critical",
    "gperp_decompose",
]


def _svd_frame(u: np.ndarray):
    """(U, sigma, Vh) of u, sigma descending.  Refuses singular u by its
    squared singular values (the Gram spectrum) and clustered u by the gaps
    of sigma itself: a gap of sigma squared shrinks with sigma, so small
    but well-separated singular values would otherwise count as clustered."""
    try:
        frame_u, sigma, vh = np.linalg.svd(u)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("SVD of the data matrix did not converge") from exc
    vals = sigma**2
    if float(vals[-1]) <= 0.0 or float(vals[-1]) < 1e-14 * max(1.0, float(vals[0])):
        raise SingularityError("data matrix is singular to working precision")
    if sigma.size > 1 and float(np.min(-np.diff(sigma))) < GAP_TOL * max(1.0, float(sigma[0])):
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


def _check_enumerable(n: int, limit: int, name: str) -> None:
    """Refuse a full enumeration of 2^n points above limit, before any work."""
    if n > limit:
        raise UnsupportedError(f"{name} supports n <= {limit} ({2**limit} points), got n = {n}")


def _real_input(u, name: str) -> np.ndarray:
    u = as_square(u, "u")
    if np.iscomplexobj(u):
        raise InputError(f"{name}: real input required")
    return u


def nearest_orthogonal(u) -> CriticalPoint:
    """Closest orthogonal matrix to u: the all-positive-sign critical point."""
    u = _real_input(u, "nearest_orthogonal")
    xs = _lift(_svd_frame(u), np.ones((1, u.shape[0])))
    return _certify_batch(xs, u, GroupSpec("orthogonal", u.shape[0]))[0]


def enumerate_orthogonal_critical(u) -> list[CriticalPoint]:
    """All 2^n critical points over the orthogonal group, one per sign vector,
    in lexicographic sign order (+1 before -1).  Sizes above
    _MAX_ORTHOGONAL_N are refused before any work."""
    u = _real_input(u, "enumerate_orthogonal_critical")
    _check_enumerable(u.shape[0], _MAX_ORTHOGONAL_N, "enumerate_orthogonal_critical")
    xs = _lift(_svd_frame(u), _sign_table(u.shape[0]))
    return _certify_batch(xs, u, GroupSpec("orthogonal", u.shape[0]))


def nearest_special_orthogonal(u) -> CriticalPoint:
    """Closest rotation to u.

    For det(u) > 0 this is the plain polar factor; otherwise the sign of the
    smallest singular value flips, the cheapest determinant correction.
    """
    u = _real_input(u, "nearest_special_orthogonal")
    signs = np.ones((1, u.shape[0]))
    # The polar factor inherits the determinant sign of u.
    if det(u) < 0.0:
        signs[0, -1] = -1.0  # singular values sorted descending, so last is smallest
    xs = _lift(_svd_frame(u), signs)
    point = _certify_batch(xs, u, GroupSpec("special_orthogonal", u.shape[0]))[0]
    if point.det_sign != 1:
        raise DegeneracyError("special orthogonal branch selection failed")
    return point


def nearest_unitary(u) -> CriticalPoint:
    """Closest unitary matrix to a complex square matrix."""
    u = as_square(u, "u").astype(np.complex128)
    xs = _lift(_svd_frame(u), np.ones((1, u.shape[0])))
    return _certify_batch(xs, u, GroupSpec("unitary_embedded", 2 * u.shape[0]))[0]


def enumerate_unitary_critical(u) -> list[CriticalPoint]:
    """All 2^m unitary critical points, lexicographic sign order.  Sizes
    above _MAX_UNITARY_M are refused before any work."""
    u = as_square(u, "u").astype(np.complex128)
    _check_enumerable(u.shape[0], _MAX_UNITARY_M, "enumerate_unitary_critical")
    xs = _lift(_svd_frame(u), _sign_table(u.shape[0]))
    return _certify_batch(xs, u, GroupSpec("unitary_embedded", 2 * u.shape[0]))


@dataclass(frozen=True)
class GPerpDecomposition:
    """The factor s = x^{-1} u at a group element x.

    For inner-product-preserving groups s lands in the orthogonal complement
    of the Lie algebra (symmetric, resp. Hermitian); trace is reported in the
    real metric, so complex traces are doubled.
    """

    s: np.ndarray
    in_gperp: bool
    trace: float


def gperp_decompose(u, x, group: GroupSpec) -> GPerpDecomposition:
    """Split u = x s at a group element x and test s against g-perp."""
    u = as_square(u, "u")
    x = as_square(x, "x")
    if u.shape != x.shape:
        raise InputError("gperp_decompose: size mismatch")
    if group.kind not in ("orthogonal", "special_orthogonal", "unitary_embedded"):
        raise InputError("gperp_decompose: inner-product-preserving groups only")
    complex_mode = np.iscomplexobj(u) or np.iscomplexobj(x)
    if complex_mode and group.kind != "unitary_embedded":
        raise InputError("gperp_decompose: complex input needs the unitary group")
    check_x = x
    check_g = group
    if complex_mode:
        check_x = embed_complex(x)
        check_g = GroupSpec("unitary_embedded", 2 * x.shape[0])
    if membership_violation(check_x, check_g) > 1e-7 * (1.0 + frobenius_norm(x)):
        raise InputError("gperp_decompose: x is not a group element")
    s = np.linalg.solve(x, u.astype(x.dtype))
    dev = frobenius_norm(s - np.conj(s).T)
    in_perp = dev <= 1e-7 * (1.0 + frobenius_norm(s))
    tr = np.trace(s)
    trace = 2.0 * float(np.real(tr)) if complex_mode else float(np.real(tr))
    return GPerpDecomposition(s=s, in_gperp=bool(in_perp), trace=trace)
