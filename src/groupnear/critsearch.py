"""Group-generic critical-point machinery.

For a matrix group G with Lie algebra g, a point x in G is critical for the
squared distance to a data matrix exactly when x^t (u - x) is Frobenius
orthogonal to g.  This module knows the Lie algebra bases and defining
equations of the supported groups, measures that criticality residual, and
runs a seeded multistart Gauss-Newton census over the augmented system
{Lie-projected residual = 0, defining equations = 0}.  The census is the
universal oracle: every closed-form route elsewhere in the package is
checked against it, and for the symplectic groups it is the only tool.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegeneracyError, InputError
from .matcore import as_square, det, frobenius_norm, herm_eig, sym_eig

KINDS = ("orthogonal", "special_orthogonal", "unitary_embedded", "sl", "sl_pm", "symplectic")

__all__ = [
    "GroupSpec",
    "CriticalPoint",
    "CensusResult",
    "lie_basis",
    "membership_violation",
    "critical_residual",
    "multistart_census",
    "random_group_element",
    "symplectic_form",
    "embed_complex",
    "unembed_complex",
    "complex_structure",
    "critical_point_from",
]


def symplectic_form(n: int) -> np.ndarray:
    """Standard block form J = [[0, I], [-I, 0]] for even n."""
    if n % 2 != 0:
        raise InputError("symplectic form needs even n")
    m = n // 2
    j = np.zeros((n, n))
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    return j


def embed_complex(z) -> np.ndarray:
    """Embed an m x m complex matrix as [[re, -im], [im, re]] (2m x 2m real)."""
    z = as_square(z, "embed_complex").astype(np.complex128)
    return np.block([[z.real, -z.imag], [z.imag, z.real]])


def unembed_complex(x) -> np.ndarray:
    """C-linear part of a 2m x 2m real matrix under the standard embedding."""
    x = as_square(x, "unembed_complex")
    if np.iscomplexobj(x) or x.shape[0] % 2 != 0:
        raise InputError("unembed_complex: real even-sized matrix required")
    m = x.shape[0] // 2
    a = 0.5 * (x[:m, :m] + x[m:, m:])
    b = 0.5 * (x[m:, :m] - x[:m, m:])
    return a + 1j * b


def complex_structure(n: int) -> np.ndarray:
    """Embedding of i * identity; commuting with it means C-linear."""
    return embed_complex(1j * np.eye(n // 2))


@dataclass(frozen=True)
class GroupSpec:
    """A supported matrix group: its kind and size.  Hashable, so per-group
    constants such as the orthonormal Lie basis are computed once."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown group kind {self.kind!r}")
        if self.n < 1:
            raise InputError("group size must be positive")
        if self.kind in ("symplectic", "unitary_embedded") and self.n % 2 != 0:
            raise InputError(f"{self.kind} requires even n")

    @property
    def dim(self) -> int:
        n = self.n
        if self.kind in ("orthogonal", "special_orthogonal"):
            return n * (n - 1) // 2
        if self.kind in ("sl", "sl_pm"):
            return n * n - 1
        if self.kind == "symplectic":
            return n * (n + 1) // 2
        return (n // 2) ** 2  # unitary_embedded

    @property
    def form(self) -> np.ndarray:
        if self.kind != "symplectic":
            raise InputError("form is only defined for symplectic groups")
        return symplectic_form(self.n)


@dataclass(frozen=True)
class CriticalPoint:
    """One critical point of the squared distance from a data matrix.

    x may be complex for the unitary solvers; distance_sq is always the real
    Frobenius metric (twice the complex squared norm in that case).  c is the
    scalar multiplier for determinant-one groups, None elsewhere.
    """

    x: np.ndarray
    distance_sq: float
    det_sign: int
    residual: float
    c: Optional[float] = None


def _basis_orthogonal(n: int) -> list[np.ndarray]:
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            b = np.zeros((n, n))
            b[i, j] = 1.0
            b[j, i] = -1.0
            out.append(b)
    return out


def _basis_traceless(n: int) -> list[np.ndarray]:
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                b = np.zeros((n, n))
                b[i, j] = 1.0
                out.append(b)
    for i in range(n - 1):
        b = np.zeros((n, n))
        b[i, i] = 1.0
        b[i + 1, i + 1] = -1.0
        out.append(b)
    return out


def _basis_symplectic(n: int) -> list[np.ndarray]:
    # a = [[A, B], [C, -A^t]] with B, C symmetric solves a^t J + J a = 0.
    m = n // 2
    out = []
    for i in range(m):
        for j in range(m):
            b = np.zeros((n, n))
            b[i, j] = 1.0
            b[m + j, m + i] = -1.0
            out.append(b)
    for i in range(m):
        for j in range(i, m):
            b = np.zeros((n, n))
            b[i, m + j] = 1.0
            b[j, m + i] = 1.0
            out.append(b)
    for i in range(m):
        for j in range(i, m):
            b = np.zeros((n, n))
            b[m + i, j] = 1.0
            b[m + j, i] = 1.0
            out.append(b)
    return out


def _basis_unitary_embedded(n: int) -> list[np.ndarray]:
    # Skew-Hermitian a + ib: a real skew, b real symmetric.
    m = n // 2
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            a = np.zeros((m, m))
            a[i, j] = 1.0
            a[j, i] = -1.0
            out.append(embed_complex(a.astype(complex)))
    for i in range(m):
        for j in range(i, m):
            b = np.zeros((m, m))
            b[i, j] = 1.0
            b[j, i] = 1.0
            out.append(embed_complex(1j * b))
    return out


def lie_basis(g: GroupSpec) -> list[np.ndarray]:
    """Linearly independent spanning set of the Lie algebra of g."""
    if g.kind in ("orthogonal", "special_orthogonal"):
        return _basis_orthogonal(g.n)
    if g.kind in ("sl", "sl_pm"):
        return _basis_traceless(g.n)
    if g.kind == "symplectic":
        return _basis_symplectic(g.n)
    return _basis_unitary_embedded(g.n)


def _orthonormal_columns(a: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """Q of a = QR with R's diagonal real positive, so Q is what modified
    Gram-Schmidt on the columns of a gives; None when a column's residual
    norm |R_jj| falls below tol."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    mag = np.abs(d)
    if np.any(mag < tol):
        return None
    return q * (d / mag)


@functools.cache
def _stacked_basis(g: GroupSpec) -> np.ndarray:
    """lie_basis(g) stacked to (k, n, n); cached per group, read-only."""
    raw = lie_basis(g)
    out = np.stack(raw) if raw else np.zeros((0, g.n, g.n))
    out.flags.writeable = False
    return out


@functools.cache
def _orthonormal_basis(g: GroupSpec) -> np.ndarray:
    """Stacked Frobenius-orthonormal basis (k, n, n); cached per group, read-only."""
    raw = _stacked_basis(g)
    k = raw.shape[0]
    q = _orthonormal_columns(raw.reshape(k, g.n * g.n).T, 1e-12)
    if q is None:
        raise DegeneracyError("lie basis not independent")
    out = q.T.reshape(k, g.n, g.n)
    out.flags.writeable = False
    return out


def membership_violation(x, g: GroupSpec) -> float:
    """Norm of the defining-equation violation of x for the group g."""
    x = as_square(x, "x")
    n = g.n
    if x.shape[0] != n:
        raise InputError("membership_violation: size mismatch")
    if g.kind == "orthogonal":
        return frobenius_norm(x.T @ x - np.eye(n))
    if g.kind == "special_orthogonal":
        return frobenius_norm(x.T @ x - np.eye(n)) + abs(det(x) - 1.0)
    if g.kind == "sl":
        return abs(det(x) - 1.0)
    if g.kind == "sl_pm":
        return abs(abs(det(x)) - 1.0)
    if g.kind == "symplectic":
        j = g.form
        return frobenius_norm(x.T @ j @ x - j)
    k = complex_structure(n)
    return frobenius_norm(x.T @ x - np.eye(n)) + frobenius_norm(x @ k - k @ x)


def critical_residual(x, u, g: GroupSpec) -> float:
    """Criticality measure: norm of the Lie-algebra component of x^t (u - x)
    plus the membership violation.  Zero exactly at critical points on G."""
    x = as_square(x, "x")
    u = as_square(u, "u")
    if x.shape != u.shape or x.shape[0] != g.n:
        raise InputError("critical_residual: size mismatch")
    basis = _orthonormal_basis(g)
    m = x.T @ (u - x)
    coords = np.einsum("ij,kij->k", m, basis)
    return float(np.sqrt(np.sum(coords**2))) + membership_violation(x, g)


def critical_point_from(x, u, g: GroupSpec, c: Optional[float] = None) -> CriticalPoint:
    """Package a solution matrix as a CriticalPoint with consistent fields.

    Complex inputs are measured in the real embedding: distances double and
    the embedded determinant of a unimodular complex matrix is always +1.
    """
    if np.iscomplexobj(x):
        xe, ue = embed_complex(x), embed_complex(u)
        ge = GroupSpec("unitary_embedded", 2 * x.shape[0])
        dist = float(np.sum(np.abs(u - x) ** 2)) * 2.0
        return CriticalPoint(
            x=np.asarray(x),
            distance_sq=dist,
            det_sign=1,
            residual=critical_residual(xe, ue, ge),
            c=c,
        )
    x = as_square(x, "x")
    dist = float(np.sum((np.asarray(u, dtype=float) - x) ** 2))
    sign = 1 if det(x) >= 0.0 else -1
    return CriticalPoint(
        x=x,
        distance_sq=dist,
        det_sign=sign,
        residual=critical_residual(x, u, g),
        c=c,
    )


# ---------------------------------------------------------------------------
# Random group elements


# Taylor degree of the batched exponential.  Each matrix is first scaled to
# Frobenius norm at most 0.5, so the first omitted term has norm below
# 0.5^19 / 19! < 1e-22.  A fixed degree (rather than stopping once the terms
# of the whole batch are small) keeps every row independent of the others.
_EXPM_DEGREE = 18


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (B, n, n)."""
    return np.sqrt(np.sum(np.abs(a.reshape(a.shape[0], -1)) ** 2, axis=1))


def _expm_batch(a: np.ndarray) -> np.ndarray:
    """Matrix exponentials of a stack (B, n, n) by scaling, a truncated
    series and squaring; every product is one stacked matmul per matrix."""
    nrm = _row_norms(a)
    squarings = np.zeros(a.shape[0], dtype=int)
    big = nrm > 0.5
    squarings[big] = np.ceil(np.log2(nrm[big] / 0.5))
    b = a / (2.0**squarings)[:, None, None]
    out = np.broadcast_to(np.eye(a.shape[1]), a.shape).copy()
    term = out
    for k in range(1, _EXPM_DEGREE + 1):
        term = np.matmul(term, b) / k
        out = out + term
    for s in range(int(squarings.max(initial=0))):
        rows = squarings > s
        out[rows] = np.matmul(out[rows], out[rows])
    return out


def _draw_symplectic(g: GroupSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """count symplectic elements (count, n, n): exponentials of random
    algebra elements, mildly scaled.  Consumes the same stream as count
    single draws."""
    coeffs = rng.uniform(-1.0, 1.0, (count, g.dim))
    a = np.tensordot(coeffs, _stacked_basis(g), axes=1)
    nrm = _row_norms(a)
    big = nrm > 1.5
    a[big] *= (1.5 / nrm[big])[:, None, None]
    return _expm_batch(a)


def _draw_element(g: GroupSpec, rng: np.random.Generator) -> np.ndarray:
    if g.kind == "symplectic":
        return _draw_symplectic(g, rng, 1)[0]
    n = g.n
    for _ in range(100):
        if g.kind in ("orthogonal", "special_orthogonal"):
            q = _orthonormal_columns(rng.uniform(-1.0, 1.0, (n, n)), 1e-10)
            if q is None:
                continue
            if g.kind == "special_orthogonal" and det(q) < 0.0:
                q = q.copy()
                q[:, -1] *= -1.0
            return q
        if g.kind in ("sl", "sl_pm"):
            a = rng.uniform(-1.0, 1.0, (n, n))
            d = det(a)
            if abs(d) < 1e-10:
                continue
            a = a / abs(d) ** (1.0 / n)
            if g.kind == "sl" and d < 0.0:
                a = a.copy()
                a[:, 0] *= -1.0
            return a
        if g.kind == "unitary_embedded":
            m = n // 2
            z = rng.uniform(-1.0, 1.0, (m, m)) + 1j * rng.uniform(-1.0, 1.0, (m, m))
            q = _orthonormal_columns(z, 1e-10)
            if q is None:
                continue
            return embed_complex(q)
    raise DegeneracyError(f"random_group_element: no usable draw for {g.kind}")


def random_group_element(g: GroupSpec, seed: int) -> np.ndarray:
    """Seeded random element of g with membership violation below 1e-9."""
    return _draw_element(g, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Membership-projection of the data matrix (start biasing only)


def _polar_orthogonal(u: np.ndarray, special: bool) -> np.ndarray:
    dec = sym_eig(u.T @ u)
    vals = np.maximum(dec.values, 0.0)
    if vals[-1] < 1e-12 * max(1.0, vals[0]):
        return np.eye(u.shape[0])
    inv_half = (dec.q / np.sqrt(vals)) @ dec.q.T
    x = u @ inv_half
    if special and det(x) < 0.0:
        y = dec.q[:, -1]
        x = x @ (np.eye(u.shape[0]) - 2.0 * np.outer(y, y))
    return x


def _project_membership(u: np.ndarray, g: GroupSpec) -> np.ndarray:
    n = g.n
    if g.kind in ("orthogonal", "special_orthogonal"):
        return _polar_orthogonal(u, g.kind == "special_orthogonal")
    if g.kind == "unitary_embedded":
        z = unembed_complex(u)
        dec = herm_eig(np.conj(z).T @ z)
        vals = np.maximum(dec.values, 0.0)
        if vals[-1] < 1e-12 * max(1.0, vals[0]):
            return np.eye(n)
        inv_half = (dec.q / np.sqrt(vals)) @ np.conj(dec.q).T
        return embed_complex(z @ inv_half)
    if g.kind in ("sl", "sl_pm"):
        d = det(u)
        if abs(d) < 1e-10:
            return np.eye(n)
        x = u / abs(d) ** (1.0 / n)
        if g.kind == "sl" and d < 0.0:
            x = x.copy()
            x[:, 0] *= -1.0
        return x
    # symplectic: minimum-norm Newton onto x^t J x = J
    j = g.form
    rows, cols = np.triu_indices(n, 1)
    x = np.array(u, dtype=float)
    for _ in range(60):
        s = x.T @ j @ x - j
        r = s[rows, cols]
        if float(np.max(np.abs(r))) < 1e-12 * (1.0 + frobenius_norm(x) ** 2):
            return x
        jx = j @ x
        jac = np.zeros((rows.size, n, n))
        for t in range(rows.size):
            jac[t, :, rows[t]] += jx[:, cols[t]]
            jac[t, :, cols[t]] -= jx[:, rows[t]]
        delta, *_ = np.linalg.lstsq(jac.reshape(rows.size, n * n), -r, rcond=None)
        x = x + delta.reshape(n, n)
        if frobenius_norm(delta.reshape(n, n)) < 1e-14 * (1.0 + frobenius_norm(x)):
            break
    if frobenius_norm(x.T @ j @ x - j) < 1e-9 * (1.0 + frobenius_norm(x) ** 2):
        return x
    return np.eye(n)


# ---------------------------------------------------------------------------
# Batched Gauss-Newton census


@dataclass
class CensusResult:
    """Distinct converged critical points plus convergence diagnostics.

    Behaves as a sequence of CriticalPoint so callers that just iterate the
    census don't need to know about the diagnostics.
    """

    points: list
    attempted: int
    converged: int
    failed: int

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, idx):
        return self.points[idx]


class _System:
    """Stacked residual/Jacobian evaluation for one (u, g) pair."""

    def __init__(self, u: np.ndarray, g: GroupSpec):
        self.u = u
        self.g = g
        self.n = g.n
        self.basis = _orthonormal_basis(g)
        self.kind = g.kind
        n = self.n
        # Basis as columns (n^2, k): the Lie coordinates of m are m_flat @ these.
        self.basis_cols = np.ascontiguousarray(self.basis.reshape(-1, n * n).T)
        self.iu = np.triu_indices(n)
        self.isu = np.triu_indices(n, 1)
        if self.kind == "symplectic":
            self.jform = g.form
        if self.kind == "unitary_embedded":
            self.K = complex_structure(n)
            # Constant Jacobian of the commutator x K - K x, flattened (a,b) x (i,j).
            eye = np.eye(n)
            jc = np.einsum("ai,jb->abij", eye, self.K) - np.einsum("ai,jb->abij", self.K, eye)
            self.jcomm = jc.reshape(n * n, n * n)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """x: (B, n, n) -> stacked residual (B, R).  Every product is a
        stacked matmul, one matrix at a time, so a row never depends on the
        other rows of the batch."""
        u, n = self.u, self.n
        xt = np.swapaxes(x, 1, 2)
        m = np.matmul(xt, u[None, :, :] - x)
        lie = np.matmul(m.reshape(-1, 1, n * n), self.basis_cols)[:, 0, :]
        parts = [lie]
        if self.kind in ("orthogonal", "special_orthogonal", "unitary_embedded"):
            gram = np.matmul(xt, x) - np.eye(n)[None, :, :]
            parts.append(gram[:, self.iu[0], self.iu[1]])
        if self.kind == "special_orthogonal":
            parts.append((np.linalg.det(x) - 1.0)[:, None])
        if self.kind == "sl":
            parts.append((np.linalg.det(x) - 1.0)[:, None])
        if self.kind == "sl_pm":
            d = np.linalg.det(x)
            parts.append((d - np.sign(d))[:, None])
        if self.kind == "symplectic":
            s = np.matmul(xt, np.matmul(self.jform, x)) - self.jform[None, :, :]
            parts.append(s[:, self.isu[0], self.isu[1]])
        if self.kind == "unitary_embedded":
            comm = np.matmul(x, self.K) - np.matmul(self.K, x)
            parts.append(comm.reshape(x.shape[0], n * n))
        return np.concatenate(parts, axis=1)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """x: (B, n, n) -> Jacobian (B, R, n^2) matching `residual`."""
        u, n = self.u, self.n
        bsz = x.shape[0]
        umx = u[None, :, :] - x
        # d<x^t(u-x), B_k> = <H, (u-x) B_k^t - x B_k>
        g1 = np.einsum("bij,klj->bkil", umx, self.basis)
        g2 = np.einsum("bij,kjl->bkil", x, self.basis)
        blocks = [(g1 - g2).reshape(bsz, -1, n * n)]
        if self.kind in ("orthogonal", "special_orthogonal", "unitary_embedded"):
            rows, cols = self.iu
            jg = np.zeros((bsz, rows.size, n, n))
            for t in range(rows.size):
                jg[:, t, :, rows[t]] += x[:, :, cols[t]]
                jg[:, t, :, cols[t]] += x[:, :, rows[t]]
            blocks.append(jg.reshape(bsz, rows.size, n * n))
        if self.kind in ("special_orthogonal", "sl", "sl_pm"):
            dets = np.linalg.det(x)
            invt = np.transpose(np.linalg.inv(x), (0, 2, 1))
            blocks.append((dets[:, None, None] * invt).reshape(bsz, 1, n * n))
        if self.kind == "symplectic":
            rows, cols = self.isu
            jx = np.einsum("ij,bjk->bik", self.jform, x)
            js = np.zeros((bsz, rows.size, n, n))
            for t in range(rows.size):
                js[:, t, :, rows[t]] += jx[:, :, cols[t]]
                js[:, t, :, cols[t]] -= jx[:, :, rows[t]]
            blocks.append(js.reshape(bsz, rows.size, n * n))
        if self.kind == "unitary_embedded":
            blocks.append(np.broadcast_to(self.jcomm, (bsz, n * n, n * n)))
        return np.concatenate(blocks, axis=1)


# Armijo step lengths 2^-j, j = 0..29, tried in blocks of j.  A start takes
# the largest step of the first block that holds one passing the test, which
# is the step that halving one length at a time would accept.
_ARMIJO_BLOCKS = tuple(
    np.ldexp(1.0, -np.arange(lo, hi)) for lo, hi in ((0, 1), (1, 3), (3, 10), (10, 30))
)

# Candidate rows per residual call in the line search, and frontier rows
# per distance block in the merge: both bound the working arrays.
_ARMIJO_ROWS = 4096
_MERGE_BLOCK = 128


def _armijo(sys_: _System, x, step, fvals, phi):
    """Backtracking line search along x + 2^-j step for a stack of starts.

    Returns the accepted x, residuals and squared residual norms (rows with
    no passing step are unchanged) and the indices of those rows.
    """
    n = x.shape[1]
    xnew, fnew, phinew = x.copy(), fvals.copy(), phi.copy()
    todo = np.arange(x.shape[0])
    for alpha in _ARMIJO_BLOCKS:
        width = alpha.size
        chunk = _ARMIJO_ROWS // width
        missed = []
        for lo in range(0, todo.size, chunk):
            rows = todo[lo : lo + chunk]
            cand = x[rows, None] + alpha[None, :, None, None] * step[rows, None]
            cand = cand.reshape(-1, n, n)
            fc = sys_.residual(cand)
            pc = np.einsum("br,br->b", fc, fc)
            ok = pc.reshape(-1, width) <= (1.0 - 1e-4 * alpha)[None, :] * phi[rows, None]
            hit = np.any(ok, axis=1)
            pick = np.flatnonzero(hit) * width + np.argmax(ok, axis=1)[hit]
            xnew[rows[hit]], fnew[rows[hit]], phinew[rows[hit]] = cand[pick], fc[pick], pc[pick]
            missed.append(rows[~hit])
        if missed:
            todo = np.concatenate(missed)
    return xnew, fnew, phinew, todo


def _merge_representatives(flat: np.ndarray, radius: float) -> np.ndarray:
    """Single-linkage clusters of the rows of flat (rows closer than radius
    are linked); returns each cluster's lowest row index, ascending.

    A cluster is grown from the lowest unassigned row: each round links every
    unassigned row within radius of the current frontier, with squared
    distances in the Gram form |a|^2 + |b|^2 - 2 a.b on frontier x unassigned
    blocks, and the newly linked rows become the next frontier.
    """
    sq = np.einsum("kn,kn->k", flat, flat)
    r2 = radius * radius
    free = np.ones(flat.shape[0], dtype=bool)
    reps = []
    while np.any(free):
        seed = int(np.argmax(free))
        reps.append(seed)
        free[seed] = False
        frontier = np.array([seed])
        while frontier.size:
            rest = np.flatnonzero(free)
            linked = np.zeros(rest.size, dtype=bool)
            for lo in range(0, frontier.size, _MERGE_BLOCK):
                f = frontier[lo : lo + _MERGE_BLOCK]
                d2 = sq[f][:, None] + sq[rest][None, :] - 2.0 * (flat[f] @ flat[rest].T)
                linked |= np.any(d2 <= r2, axis=0)
            frontier = rest[linked]
            free[frontier] = False
    return np.array(reps, dtype=int)


def multistart_census(u, g: GroupSpec, starts: int = 1000, seed: int = 0) -> CensusResult:
    """Seeded multistart Gauss-Newton census of real critical points.

    Starts are random group elements, every other one pulled halfway toward
    the membership-projected data matrix, then iterated on the stacked
    system (budget 200 sweeps).  Each sweep's Armijo search tries the step
    lengths 2^-j, j = 0..29, in a few blocks of j at once and takes the
    largest passing length, as halving one length at a time would; a start
    with no passing length stops.  Converged points (residual below 1e-9)
    are merged by single linkage at radius 1e-5 * (1 + ||u||), one
    representative (the lowest start index) per cluster, and returned sorted
    by distance, then entries.

    Every kernel acts on one start at a time, so a start's trajectory does
    not depend on which other starts are in the batch (the one exception is
    the pseudo-inverse fallback, which the whole sweep takes when a normal
    matrix is exactly singular).  With the prefix-stable start sequence, a
    larger `starts` only ever adds points.
    """
    u = as_square(u, "u").astype(float)
    if u.shape[0] != g.n:
        raise InputError("multistart_census: size mismatch")
    if starts < 1:
        raise InputError("multistart_census: starts must be >= 1")
    n = g.n
    rng = np.random.default_rng(seed)
    anchor = _project_membership(u, g)
    if g.kind == "symplectic":
        x0 = _draw_symplectic(g, rng, starts)
    else:
        x0 = np.stack([_draw_element(g, rng) for _ in range(starts)])
    # Alternate biased and raw starts: pulling every start halfway toward
    # the projected data matrix starves the far basins and loses critical
    # points, while pure random starts waste sweeps near useless regions.
    x0[0::2] = 0.5 * (x0[0::2] + anchor)

    sys_ = _System(u, g)
    utol = 1.0 + frobenius_norm(u)
    converge_tol = 1e-11 * utol
    accept_tol = 1e-9

    x = x0
    active = np.arange(starts)
    frozen_x = np.empty((starts, n, n))
    frozen_ok = np.zeros(starts, dtype=bool)

    fvals = sys_.residual(x)
    phi = np.einsum("br,br->b", fvals, fvals)
    for _ in range(200):
        if active.size == 0:
            break
        jac = sys_.jacobian(x)
        jact = np.swapaxes(jac, 1, 2)
        jtj = np.matmul(jact, jac)
        rhs = -np.matmul(jact, fvals[:, :, None])[:, :, 0]
        reg = 1e-13 * np.maximum(1.0, np.einsum("bnn->b", jtj) / (n * n))
        jtj += reg[:, None, None] * np.eye(n * n)[None, :, :]
        try:
            delta = np.linalg.solve(jtj, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            delta = np.einsum(
                "bnm,bm->bn", np.linalg.pinv(jtj, rcond=1e-12, hermitian=True), rhs
            )
        x, fvals, phi, stalled = _armijo(sys_, x, delta.reshape(-1, n, n), fvals, phi)
        normf = np.sqrt(phi)
        done = normf <= converge_tol
        done[stalled] = True
        if np.any(done):
            sel = np.flatnonzero(done)
            frozen_x[active[sel]] = x[sel]
            frozen_ok[active[sel]] = normf[sel] <= accept_tol
            keep = ~done
            x, phi, fvals, active = x[keep], phi[keep], fvals[keep], active[keep]
    if active.size:
        normf = np.sqrt(phi)
        frozen_x[active] = x
        frozen_ok[active] = normf <= accept_tol

    good = frozen_x[frozen_ok]
    n_conv = int(np.sum(frozen_ok))
    n_fail = starts - n_conv

    pts: list[CriticalPoint] = []
    if n_conv:
        for i in _merge_representatives(good.reshape(n_conv, -1), 1e-5 * utol):
            xi = good[i]
            cval = None
            if g.kind in ("sl", "sl_pm"):
                cval = float(np.trace(xi.T @ (u - xi)) / n)
            pts.append(critical_point_from(xi, u, g, c=cval))
        pts.sort(key=lambda p: (p.distance_sq, tuple(p.x.reshape(-1))))
    return CensusResult(points=pts, attempted=starts, converged=n_conv, failed=n_fail)
