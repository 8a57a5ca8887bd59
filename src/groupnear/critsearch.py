"""Group-generic critical-point machinery.

For a matrix group G with Lie algebra g, a point x in G is critical for the
squared distance to a data matrix exactly when x^t (u - x) is Frobenius
orthogonal to g.  This module knows the Lie algebra bases and defining
equations of the supported groups, measures that criticality residual, and
runs a seeded multistart Newton census over the augmented system
{Lie-projected residual = 0, defining equations = 0}.  The census is the
universal oracle: every closed-form route elsewhere in the package is
checked against it, and for the symplectic groups it is the only tool.
That system is square for every group the census runs: SO and U run
O's (`_Equations.census`), and a converged start is kept only when it is
also certified on its own group.  So every sweep solves J delta = -f.

Each group's defining equations are written once, in `_equations`: the
forms x^t M x = M it preserves and a det rule, with U = O ∩ Sp preserving
both I and J.  The certifier (`membership_violation`, `critical_residual`)
sums the Frobenius norms of the full defects; the census system takes the
independent entries of the same defects as its rows.  Likewise the
certifier measures the Lie-algebra component by each group's orthogonal
projection (`_lie_part`, O(n^2) memory per point), and the census takes
its coordinates in the orthonormal basis as rows.

Every solver reports `CriticalPoint`s: an immutable NamedTuple (x,
distance_sq, det_sign, residual, c) whose fields are read by name or
position.  One certifier, `_certify_batch`, builds them for a whole stack
in one positional `map` call.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InputError, UnsupportedError
from .matcore import _check_positive_int, _check_seed, as_square, frobenius_norm

KINDS = ("orthogonal", "special_orthogonal", "unitary_embedded", "sl", "sl_pm", "symplectic")


def symplectic_form(n: int) -> np.ndarray:
    """Standard block form J = [[0, I], [-I, 0]] for even n."""
    if n % 2 != 0:
        raise InputError("symplectic form needs even n")
    m = n // 2
    j = np.zeros((n, n))
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    return j


def _embed(z: np.ndarray) -> np.ndarray:
    """[[re, -im], [im, re]] of a matrix or of each matrix of a stack."""
    return np.block([[z.real, -z.imag], [z.imag, z.real]])


def embed_complex(z) -> np.ndarray:
    """Embed an m x m complex matrix as [[re, -im], [im, re]] (2m x 2m real)."""
    return _embed(as_square(z, "embed_complex").astype(np.complex128))


@dataclass(frozen=True)
class GroupSpec:
    """A supported matrix group: its kind and size.  Hashable, so per-group
    constants such as the orthonormal Lie basis are computed once."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown group kind {self.kind!r}")
        _check_positive_int(self.n, "group size")
        object.__setattr__(self, "n", int(self.n))
        if self.kind in ("symplectic", "unitary_embedded") and self.n % 2 != 0:
            raise InputError(f"{self.kind} requires even n")


class CriticalPoint(NamedTuple):
    """One critical point of the squared distance from a data matrix: an
    immutable record, read by field name or by position.

    x may be complex for the unitary solvers; distance_sq is always the real
    Frobenius metric (twice the complex squared norm in that case).  c is the
    scalar multiplier for determinant-one groups, None elsewhere.
    """

    x: np.ndarray
    distance_sq: float
    det_sign: int
    residual: float
    c: Optional[float] = None


def _units(m: int) -> np.ndarray:
    """The matrix units E_ij of gl(m), row-major, stacked (m^2, m, m)."""
    return np.eye(m * m).reshape(m * m, m, m)


def _skew(m: int) -> np.ndarray:
    """E_ij - E_ji for i < j, row-major: a basis of so(m), stacked."""
    i, j = np.triu_indices(m, 1)
    e = _units(m)
    return e[i * m + j] - e[j * m + i]


def _sym(m: int) -> np.ndarray:
    """E_ij + E_ji for i < j and E_ii, row-major: a basis of the symmetric
    m x m matrices, stacked."""
    i, j = np.triu_indices(m)
    e = _units(m)
    return np.maximum(e[i * m + j], e[j * m + i])


def _lie_stack(g: GroupSpec) -> np.ndarray:
    """Lie algebra basis of g, stacked (k, n, n)."""
    n, m = g.n, g.n // 2
    if g.kind in ("orthogonal", "special_orthogonal"):
        return _skew(n)
    if g.kind == "unitary_embedded":
        # Skew-Hermitian a + ib: a real skew, b real symmetric.
        return _embed(np.concatenate([_skew(m).astype(complex), 1j * _sym(m)]))
    if g.kind == "symplectic":
        # [[A, B], [C, -A^t]] with B, C symmetric solves a^t J + J a = 0.
        # (o - e^t rather than -e^t keeps the zero entries +0.0.)
        e, s = _units(m), _sym(m)
        o, z = np.zeros_like(e), np.zeros_like(s)
        return np.concatenate(
            [
                np.block([[e, o], [o, o - np.swapaxes(e, 1, 2)]]),
                np.block([[z, s], [z, z]]),
                np.block([[z, z], [s, z]]),
            ]
        )
    # sl: off-diagonal units, then E_ii - E_(i+1)(i+1).
    e = _units(n)
    diag = np.arange(n) * (n + 1)
    return np.concatenate([np.delete(e, diag, axis=0), e[diag[:-1]] - e[diag[1:]]])


def lie_basis(g: GroupSpec) -> list[np.ndarray]:
    """Linearly independent spanning set of the Lie algebra of g."""
    return list(_lie_stack(g))


def _unit_frame(a: np.ndarray) -> np.ndarray:
    """Q of a = QR (a matrix or a stack) with R's diagonal made real
    positive, so Q is what modified Gram-Schmidt on the columns of a gives."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


@functools.cache
def _basis_columns(g: GroupSpec) -> np.ndarray:
    """A Frobenius-orthonormal basis of the Lie algebra as columns (n^2, k),
    the Q factor of the Lie stack's columns: the Lie coordinates of a
    matrix m are m_flat @ these, and `.T.reshape(k, n, n)` stacks the basis
    matrices.  Cached per group, read-only."""
    raw = _lie_stack(g)
    out = np.ascontiguousarray(_unit_frame(raw.reshape(raw.shape[0], g.n * g.n).T))
    out.flags.writeable = False
    return out


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a real stack (B, n, n), B >= 0."""
    flat = a.reshape(a.shape[0], a.shape[1] * a.shape[2])
    return np.sqrt((flat * flat).sum(axis=1))


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The identity form I of size n.  Cached, read-only: `_form_image` and
    `_lie_part` know it by identity (`is`), not by its entries."""
    out = np.eye(n)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class _Equations:
    """The defining equations of a group; see `_equations`."""

    forms: tuple  # (M, rows, cols) each: x^t M x = M on those entries
    det_rule: Optional[str]  # "one": det x = 1; "unit": |det x| = 1
    # The group whose square system (n^2 rows) the census runs: O(n) for
    # SO and U, g itself otherwise.  SO is a component of O, and U(m) is
    # the fixed set of x -> J x J^-1 in O(2m), so by Palais's symmetric
    # criticality its critical points for u are the C-linear critical
    # points of O(2m) for u's C-linear part.  SO's det row and U's J rows
    # would make the system over-determined.
    census: GroupSpec


@functools.cache
def _equations(g: GroupSpec) -> _Equations:
    """The defining equations of g, forms and a det rule, and the group
    whose system the census runs, read by the certifier (`_violations`,
    `_lie_part`) and by the census (`_System`).  Cached per group,
    read-only.

    O and SO preserve the symmetric form I: x^t x - I is symmetric, so its
    independent entries are the upper triangle with the diagonal.  Sp
    preserves the skew form J: only the strict upper triangle counts.  U =
    O ∩ Sp (the embedded C-linear isometries) preserves both.  SO and SL
    have det x = 1, SL^± |det x| = 1.
    """
    n = g.n
    forms = []
    if g.kind in ("orthogonal", "special_orthogonal", "unitary_embedded"):
        forms.append((_identity(n), *np.triu_indices(n)))
    if g.kind in ("symplectic", "unitary_embedded"):
        j = symplectic_form(n)
        j.flags.writeable = False
        forms.append((j, *np.triu_indices(n, 1)))
    det_rule = {"special_orthogonal": "one", "sl": "one", "sl_pm": "unit"}.get(g.kind)
    census = GroupSpec("orthogonal", n) if g.kind in ("special_orthogonal", "unitary_embedded") else g
    return _Equations(forms=tuple(forms), det_rule=det_rule, census=census)


def _det_defect(dets: np.ndarray, rule: str) -> np.ndarray:
    """det x minus its target: 1 under rule "one"; under "unit" the unit of
    det's sign, +1 at det = 0 (so a singular x is off SL^± by 1)."""
    return dets - (np.where(dets < 0.0, -1.0, 1.0) if rule == "unit" else 1.0)


def _form_image(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x for each matrix of a stack x, M a form of `_equations`.  When
    M = I, a copy of x: that product is exact, so the copy has its bits at
    O(n^2) cost, not O(n^3).  It must be a second buffer: numpy sends x^t x
    with both operands on one buffer to syrk, whose sums differ from gemm's
    in the last bit from n = 12 on (and which is slower on small matrices)."""
    return x.copy() if m is _identity(m.shape[0]) else np.matmul(m, x)


def _defects(x: np.ndarray, g: GroupSpec):
    """The defining equations of g at each matrix of a real stack x: (one
    full matrix x^t M x - M per form, the det defect or None)."""
    eq = _equations(g)
    forms = [np.matmul(np.swapaxes(x, 1, 2), _form_image(m, x)) - m[None, :, :] for m, _, _ in eq.forms]
    dets = None if eq.det_rule is None else _det_defect(np.linalg.det(x), eq.det_rule)
    return forms, dets


def _violations(x: np.ndarray, g: GroupSpec) -> np.ndarray:
    """Defining-equation violation (B,) of each matrix of a real stack x:
    the sum of the Frobenius norms of its defects, one per form, then det."""
    forms, dets = _defects(x, g)
    norms = [_row_norms(form) for form in forms]
    if dets is not None:
        norms.append(np.abs(dets))
    return sum(norms[1:], norms[0])


def _lie_coordinates(x: np.ndarray, u: np.ndarray, g: GroupSpec) -> np.ndarray:
    """Coordinates (B, k) of x^t (u - x) in the orthonormal Lie basis of g,
    for each matrix of a real stack x."""
    m = np.matmul(np.swapaxes(x, 1, 2), u[None, :, :] - x)
    return np.matmul(m.reshape(-1, 1, g.n * g.n), _basis_columns(g))[:, 0, :]


def _lie_part(m: np.ndarray, g: GroupSpec) -> np.ndarray:
    """Orthogonal projection of each matrix of a real stack m onto the Lie
    algebra of g, written over m: (m - M^t m^t M)/2 for each form M in turn
    ((m - m^t)/2 for I), then m - tr(m)/n I under a det rule (for SO, whose
    m is skew by then, that subtracts an exact 0).  For U = O ∩ Sp the J
    step takes the skew p to (p - J p J)/2, its C-linear part.  In place,
    so the certificate holds at most two stacks beside m."""
    eq = _equations(g)
    for form, _, _ in eq.forms:
        mt = np.swapaxes(m, 1, 2)
        m -= mt if form is _identity(g.n) else np.matmul(form.T, np.matmul(mt, form))
        m *= 0.5
    if eq.det_rule is not None:
        diag = np.einsum("bii->bi", m)  # a writeable view of the diagonals
        diag -= (diag.sum(axis=1) / g.n)[:, None]
    return m


def _residuals(x: np.ndarray, u: np.ndarray, g: GroupSpec) -> np.ndarray:
    """Criticality residual (B,) of each matrix of a real stack x: the norm
    of the Lie-algebra component of x^t (u - x) plus the membership
    violation.  The component is the orthogonal projection `_lie_part`,
    whose norm equals that of the coordinates in the orthonormal Lie basis
    but costs O(n^2) memory per point, not the basis' O(n^4)."""
    violation = _violations(x, g)  # first, so its temporaries never meet m
    m = np.matmul(np.swapaxes(x, 1, 2), u[None, :, :] - x)
    return _row_norms(_lie_part(m, g)) + violation


def _certify_batch(xs: np.ndarray, u: np.ndarray, g: GroupSpec, c=None, det_plus=None) -> list[CriticalPoint]:
    """Package a stack of solution matrices xs (B, n, n) as CriticalPoints.

    c is None or one multiplier per row.  det_plus is None, to read each
    real row's det sign from its dense det, or a mask (B,) of the det +1
    rows read from the frame they were lifted from: a dense x with a tiny
    singular value can round to a det of either sign.  Complex stacks, on
    g = GroupSpec("unitary_embedded", 2m), are measured in the real
    embedding: distances double and the embedded determinant of a
    unimodular complex matrix is always +1.  Every product is a stacked
    per-matrix matmul, so a row's fields do not depend on the other rows.
    """
    count = xs.shape[0]
    if np.iscomplexobj(xs):
        dist = np.sum(np.abs(u[None, :, :] - xs).reshape(count, -1) ** 2, axis=1) * 2.0
        signs = itertools.repeat(1)
        res = _residuals(_embed(xs), _embed(np.asarray(u, dtype=np.complex128)), g)
    else:
        # One difference stack, squared in place (d * d is |d| ** 2 to the
        # bit) and freed before `_residuals` forms its own.
        diff = u[None, :, :] - xs
        diff *= diff
        dist = diff.reshape(count, -1).sum(axis=1)
        del diff
        signs = np.where(np.linalg.det(xs) >= 0.0 if det_plus is None else det_plus, 1, -1).tolist()
        res = _residuals(xs, u, g)
    cs = itertools.repeat(None) if c is None else c
    return list(map(CriticalPoint, xs, dist.tolist(), signs, res.tolist(), cs))


def _one_row(x, u, name: str):
    """x and u validated as square, of one size and not complex u with real
    x; x as a (1, n, n) stack."""
    x = as_square(x, "x")
    u = as_square(u, "u")
    if x.shape != u.shape:
        raise InputError(f"{name}: size mismatch")
    if np.iscomplexobj(u) and not np.iscomplexobj(x):
        raise InputError(f"{name}: u is complex but x is real (embed both with embed_complex)")
    return x[None], u


def _require_real(a, name: str, what: str) -> None:
    if np.iscomplexobj(a):
        raise InputError(f"{name}: {what} must be real (embed a complex {what} with embed_complex)")


def membership_violation(x, g: GroupSpec) -> float:
    """Norm of the defining-equation violation of x for the group g.  x must
    be real: a complex matrix enters through `embed_complex`."""
    x = as_square(x, "x")
    _require_real(x, "membership_violation", "x")
    if x.shape[0] != g.n:
        raise InputError("membership_violation: size mismatch")
    return float(_violations(x[None], g)[0])


def critical_residual(x, u, g: GroupSpec) -> float:
    """Criticality measure: norm of the Lie-algebra component of x^t (u - x)
    plus the membership violation.  Zero exactly at critical points on G.
    x and u must be real: complex matrices enter through `embed_complex`."""
    xs, u = _one_row(x, u, "critical_residual")
    _require_real(xs, "critical_residual", "x")
    if xs.shape[1] != g.n:
        raise InputError("critical_residual: size mismatch")
    return float(_residuals(xs, u, g)[0])


def critical_point_from(x, u, g: GroupSpec, c: Optional[float] = None) -> CriticalPoint:
    """Package a solution matrix as a CriticalPoint with consistent fields.

    A complex m x m x is a point of U(m), g = GroupSpec("unitary_embedded",
    2m), and is measured in the real embedding: distances double and the
    embedded determinant of a unimodular complex matrix is always +1.  A
    complex x with any other g, or a complex u with a real x, raises
    InputError.
    """
    xs, u = _one_row(x, u, "critical_point_from")
    if np.iscomplexobj(xs):
        if g != GroupSpec("unitary_embedded", 2 * xs.shape[1]):
            raise InputError(f"critical_point_from: a complex x needs unitary_embedded {2 * xs.shape[1]}, not {g}")
    elif xs.shape[1] != g.n:
        raise InputError("critical_point_from: size mismatch")
    return _certify_batch(xs, u, g, None if c is None else [c])[0]


# ---------------------------------------------------------------------------
# Random group elements


def _draw(g: GroupSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """count seeded random elements of g, stacked (count, n, n).

    Row i reads the stream values that the i-th of count single draws
    would, and every kernel acts on one matrix at a time, so a larger draw
    extends a smaller one bit for bit.  Nothing is redrawn (a redraw would
    shift every later row):
    - orthogonal / special orthogonal: Q of a uniform [-1, 1] matrix, with
      R's diagonal positive (the last column flipped when det Q < 0 for SO);
    - unitary: the same for re + i im, re and im uniform, then embedded;
    - sl / sl_pm: a uniform matrix put on the group by `_unit_det`;
    - symplectic: the unitary draw.  Under J = [[0, I], [-I, 0]] the
      embedded U(m) is Sp(2m) intersected with O(2m), the maximal compact
      subgroup of Sp(2m), and it contains -I.
    """
    n = g.n
    if g.kind in ("symplectic", "unitary_embedded"):
        z = rng.uniform(-1.0, 1.0, (count, 2, n // 2, n // 2))
        return _embed(_unit_frame(z[:, 0] + 1j * z[:, 1]))
    a = rng.uniform(-1.0, 1.0, (count, n, n))
    if g.kind in ("orthogonal", "special_orthogonal"):
        q = _unit_frame(a)
        if g.kind == "special_orthogonal":
            q[np.linalg.det(q) < 0.0, :, -1] *= -1.0
        return q
    return _unit_det(a, g.kind)


def _unit_det(a: np.ndarray, kind: str) -> np.ndarray:
    """Each matrix of a stack a, written over, scaled to |det| = 1 with its
    first column flipped where det < 0 for sl; a matrix with
    |det| < 1e-10, too near singular to scale, becomes the identity.  The
    rule of the SL and SL^± draw and of their census anchor."""
    n = a.shape[1]
    dets = np.linalg.det(a)
    near = np.abs(dets) < 1e-10
    a[near] = np.eye(n)
    dets[near] = 1.0
    # Python's float power per row, as a single draw computes it: numpy's
    # vectorised power differs from it in the last bit on some rows.
    a /= np.array([abs(d) ** (1.0 / n) for d in dets.tolist()])[:, None, None]
    if kind == "sl":
        a[dets < 0.0, :, 0] *= -1.0
    return a


def random_group_element(g: GroupSpec, seed: int) -> np.ndarray:
    """Seeded random element of g with membership violation below 1e-9: the
    first row of the census draw on the same seed (see `_draw`; for Sp an
    element of its compact part U(m))."""
    _check_seed(seed, "random_group_element")
    return _draw(g, np.random.default_rng(seed), 1)[0]


# ---------------------------------------------------------------------------
# Batched Newton census


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
    merge_radius: float
    worst_residual: Optional[float]  # largest residual among points; None if none
    sweeps: int  # Newton sweeps run (at most 200)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, idx):
        return self.points[idx]


def _form_jacobian(left: np.ndarray, right: np.ndarray, rows, cols) -> np.ndarray:
    """Jacobian (B, T, n^2) of the entries (rows[t], cols[t]) of x^t M x
    with respect to x, for a stack with left = M^t x and right = M x: the
    entry (p, q) moves by H[:, p] . (M x)[:, q] + (M^t x)[:, p] . H[:, q]."""
    bsz, n, _ = left.shape
    t = np.arange(len(rows))
    jac = np.zeros((bsz, t.size, n, n))
    jac[:, t, :, rows] += np.moveaxis(right[:, :, cols], 2, 0)
    jac[:, t, :, cols] += np.moveaxis(left[:, :, rows], 2, 0)
    return jac.reshape(bsz, t.size, n * n)


@functools.cache
def _linear_tensor(g: GroupSpec) -> np.ndarray:
    """T (n^2, P n^2) with J(x) = J0(u) + x_flat T on the P polynomial rows
    of the census system (all rows but det): the Lie row k moves by
    -x (B_k + B_k^t), and the rows of each form M, one block per form, by
    the form Jacobian at x.  Row m of T is that linear part at the matrix
    unit E_m.  Cached per group, read-only."""
    n = g.n
    e = _units(n)
    basis = _basis_columns(g).T.reshape(-1, n, n)
    blocks = [-np.matmul(e[:, None], basis + np.swapaxes(basis, 1, 2)).reshape(n * n, -1, n * n)]
    for m, rows, cols in _equations(g).forms:
        blocks.append(_form_jacobian(np.matmul(m.T, e), np.matmul(m, e), rows, cols))
    out = np.concatenate(blocks, axis=1).reshape(n * n, -1)
    out.flags.writeable = False
    return out


class _System:
    """Stacked residual/Jacobian evaluation of the census system for one
    (u, g) pair: the square system of g's census group (`_Equations.census`,
    O(n) for SO and U), stored as `g`.  For U, u is replaced by its C-linear
    part (u - J u J)/2; on U, f_u and f of that part differ by a constant.

    The rows are the Lie coordinates <x^t (u - x), B_k> followed by the
    defining equations of the census group from `_defects`: the
    independent entries of x^t M x - M for each form M, then the det
    defect (SL and SL^±).  Every row but det is a polynomial of degree at
    most two in x, so their Jacobian is affine, J0(u) + x_flat T with T
    cached per group (`_linear_tensor`), and along x + a d they are exactly
    f + a J d + a^2 (d_flat T) d / 2.
    The det row (`_det_defect`) has gradient det(x) x^-t.
    """

    def __init__(self, u: np.ndarray, g: GroupSpec):
        if g.kind == "unitary_embedded":
            j = symplectic_form(g.n)
            u = 0.5 * (u - j @ u @ j)
        self.u = u
        self.g = g = _equations(g).census
        self.n = n = g.n
        self.eq = eq = _equations(g)
        self.tensor = _linear_tensor(g)
        self.has_det = eq.det_rule is not None
        basis = _basis_columns(g).T.reshape(-1, n, n)
        # Constant part of the Lie rows: d<x^t(u-x), B_k> = <H, u B_k^t> - <H, x (B_k + B_k^t)>.
        j0 = [np.matmul(u, np.swapaxes(basis, 1, 2)).reshape(-1, n * n)]
        j0 += [np.zeros((len(rows), n * n)) for _, rows, _ in eq.forms]
        self.j0 = np.concatenate(j0)
        self.poly_rows = self.j0.shape[0]
        self.zero = np.zeros_like(u)  # u = 0 in `quadratic`

    def residual(self, x: np.ndarray) -> np.ndarray:
        """x: (B, n, n) -> stacked residual (B, R).  Every product is a
        stacked matmul, one matrix at a time, so a row never depends on the
        other rows of the batch."""
        forms, dets = _defects(x, self.g)
        parts = [_lie_coordinates(x, self.u, self.g)]
        parts += [form[:, rows, cols] for form, (_, rows, cols) in zip(forms, self.eq.forms)]
        if dets is not None:
            parts.append(dets[:, None])
        return np.concatenate(parts, axis=1)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """x: (B, n, n) -> Jacobian (B, R, n^2) matching `residual`."""
        n, bsz = self.n, x.shape[0]
        jac = np.matmul(x.reshape(bsz, 1, n * n), self.tensor).reshape(bsz, -1, n * n)
        jac += self.j0
        if not self.has_det:
            return jac
        dets = np.linalg.det(x)
        invt = np.transpose(np.linalg.inv(x), (0, 2, 1))
        return np.concatenate([jac, (dets[:, None, None] * invt).reshape(bsz, 1, n * n)], axis=1)

    def quadratic(self, d: np.ndarray) -> np.ndarray:
        """d: (B, n, n) -> (B, P): the a^2 coefficient of the polynomial
        rows along x + a d, (d_flat T) d / 2 written out: the Lie rows at
        u = 0 (minus the Lie coordinates of d^t d), then the rows of d^t M d
        for each form M."""
        parts = [_lie_coordinates(d, self.zero, self.g)]
        dt = np.swapaxes(d, 1, 2)
        parts += [np.matmul(dt, _form_image(m, d))[:, rows, cols] for m, rows, cols in self.eq.forms]
        return np.concatenate(parts, axis=1)

    def det_polynomial(self, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """(B, n + 1) coefficients of det(x + a d) = det(x) sum_k a^k e_k,
        e_k the elementary symmetric functions of the eigenvalues of
        x^-1 d, from the power traces tr((x^-1 d)^k) by Newton's identities."""
        n = self.n
        a = np.linalg.solve(x, d)
        power, traces = a, [np.trace(a, axis1=1, axis2=2)]
        for _ in range(n - 1):
            power = np.matmul(power, a)
            traces.append(np.trace(power, axis1=1, axis2=2))
        e = [np.ones(x.shape[0])]
        for k in range(1, n + 1):
            e.append(sum((-1.0) ** (i - 1) * e[k - i] * traces[i - 1] for i in range(1, k + 1)) / k)
        return np.linalg.det(x)[:, None] * np.stack(e, axis=1)


# Armijo step lengths 2^-j, j = 0..29, and the factor of phi that each must reach.
_ARMIJO_STEPS = np.ldexp(1.0, -np.arange(30))
_ARMIJO_DECREASE = 1.0 - 1e-4 * _ARMIJO_STEPS

# Active starts per block of a sweep's Newton step: bounds its
# (starts, n^2, n^2) Jacobian and the solve's working copy of it.
_SWEEP_BLOCK = 256
# Frontier rows per distance block in the merge: bounds the working arrays.
_MERGE_BLOCK = 128
# Smallest merge radius, relative to the largest row norm, that the merge
# accepts: its Gram-form squared distances round at a few 1e-16 |x|^2, so
# radius^2 = 1e-14 |x|^2 sits well clear of the rounding.
_MERGE_RESOLUTION = 1e-7
# Largest census size.  At 1000 starts on `random_general(10, 0)`, seed 0
# (2-vCPU x86 machine, BLAS at 1 thread, one run each), n = 10 takes
# 12.7 s and peaks at 87 MB for Sp, 39.9 s and 93 MB for SL, 35.3 s and
# 94 MB for SL^±, 28.3 s and 88 MB for O, 28.4 s and 92 MB for SO and
# 8.4 s and 88 MB for U.  n = 12 took 77-276 s and 175-250 MB on the
# floored normal equations that the census solved before; the cached
# tensor alone holds about n^6 doubles.
_MAX_CENSUS_N = 10
# Largest number of starts.  A sweep holds its Jacobians for one block of
# starts at a time (_SWEEP_BLOCK), and about 4.5 kB per start across
# sweeps: Sp(6), the largest census the CLI runs, peaks at 48 MB with
# 2000 starts and 85 MB with 10000 (4.5 s, BLAS at 1 thread), where
# sweeps over all starts at once took 105 and 378 MB.  At n = 10 a start
# keeps about 10 kB: the unitary census peaks at 88 MB with 1000 starts
# and 175 MB with 10000 (82 s).
_MAX_STARTS = 10_000


@functools.cache
def _step_powers(count: int) -> np.ndarray:
    """(count, 30) powers a^k, k < count, of the Armijo lengths (exact):
    coefficients times these evaluate a polynomial at every length.
    Cached per count, read-only."""
    out = np.ldexp(1.0, -np.outer(np.arange(count), np.arange(_ARMIJO_STEPS.size)))
    out.flags.writeable = False
    return out


def _gauss_newton_block(sys_: _System, x: np.ndarray, fvals: np.ndarray):
    """Newton step of a block of starts on the square census system:
    (delta (B, n^2), lin (B, P)), delta solving J delta = -f and lin = J
    delta on the polynomial rows, for `_armijo`.

    One batched solve, no J^t J, which would square J's condition number.
    When a Jacobian of the block is exactly singular, the block solves row
    by row, and a singular row takes a zero step, so its start stalls in
    `_armijo`.  Each matrix is solved on its own either way, so a row's
    step never depends on the other rows of the block.  The block's
    Jacobian is freed on return.
    """
    jac = sys_.jacobian(x)
    rhs = -fvals[:, :, None]
    try:
        delta = np.linalg.solve(jac, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        delta = np.zeros(rhs.shape[:2])  # a singular row keeps its zero step
        for i in range(len(jac)):
            with contextlib.suppress(np.linalg.LinAlgError):
                delta[i] = np.linalg.solve(jac[i : i + 1], rhs[i : i + 1])[0, :, 0]
    lin = np.matmul(jac[:, : sys_.poly_rows], delta[:, :, None])[:, :, 0]
    return delta, lin


def _armijo(sys_: _System, x, step, lin, fvals, phi):
    """Backtracking line search along x + 2^-j step for a stack of starts.

    The squared residual along the step is a quartic in the length a from
    the polynomial rows (f + a lin + a^2 q, lin = J step from
    `_gauss_newton_block`, q from `_System.quadratic`)
    plus the square of the determinant row (`_System.det_polynomial`), so
    all 30 lengths are tested from a few coefficients per start.  A start
    takes the largest passing length, the one that halving one length at a
    time would accept (the first passing one, found by one argmax), and its
    residual is then evaluated directly.  The coefficients' six row dot
    products come from one einsum over the stacked (f, lin, quad), which
    sums each row exactly as six separate "br,br->b" calls would.

    Returns the accepted x, residuals and squared residual norms (rows with
    no passing step are unchanged) and the indices of those rows.  The
    inputs are never written: when every row passes, the results are new
    arrays formed directly, otherwise copies of the inputs updated on the
    passing rows.
    """
    bsz, n = x.shape[0], x.shape[1]
    f = fvals[:, : sys_.poly_rows]
    # |f + a lin + a^2 quad|^2, coefficients of a^0 .. a^4, from the row dot
    # products of f, lin and quad = `_System.quadratic` in one reduction over
    # one stacked operand (each row summed as "br,br->b" would).
    s = np.array([f, lin, sys_.quadratic(step)])
    dots = np.einsum("ibr,jbr->ijb", s, s)
    del s  # freed before the residual pass below
    ff, fl, ll, fq, lq, qq = dots[0, 0], dots[0, 1], dots[1, 1], dots[0, 2], dots[1, 2], dots[2, 2]
    coef = np.array([ff, 2.0 * fl, ll + 2.0 * fq, 2.0 * lq, qq]).T
    trial = np.matmul(coef[:, None, :], _step_powers(5))[:, 0, :]
    if sys_.has_det:
        dpoly = sys_.det_polynomial(x, step)
        dets = np.matmul(dpoly[:, None, :], _step_powers(n + 1))[:, 0, :]
        trial = trial + _det_defect(dets, sys_.eq.det_rule) ** 2
    ok = trial <= _ARMIJO_DECREASE[None, :] * phi[:, None]
    first = np.argmax(ok, axis=1)
    hit = ok[np.arange(bsz), first]
    alpha = _ARMIJO_STEPS[first]
    stalled = np.flatnonzero(~hit)
    if not stalled.size:
        xnew = x + alpha[:, None, None] * step
        fnew = sys_.residual(xnew)
        return xnew, fnew, np.einsum("br,br->b", fnew, fnew), stalled
    rows = np.flatnonzero(hit)
    xnew, fnew, phinew = x.copy(), fvals.copy(), phi.copy()
    xnew[rows] = x[rows] + alpha[rows, None, None] * step[rows]
    fnew[rows] = sys_.residual(xnew[rows])
    phinew[rows] = np.einsum("br,br->b", fnew[rows], fnew[rows])
    return xnew, fnew, phinew, stalled


def _merge_representatives(flat: np.ndarray, radius: float) -> np.ndarray:
    """Single-linkage clusters of the rows of flat (rows closer than radius
    are linked); returns each cluster's lowest row index, ascending.

    A cluster is grown from the lowest unassigned row: each round links every
    unassigned row within radius of the current frontier, with squared
    distances in the Gram form |a|^2 + |b|^2 - 2 a.b on frontier x unassigned
    blocks, and the newly linked rows become the next frontier.  The Gram
    form rounds at about 1e-16 |x|^2, so a radius below 1e-7 times the
    largest row norm (`_MERGE_RESOLUTION`) cannot be resolved and raises
    InputError before any distance is formed; the census merges at
    1e-5 (1 + |u|).
    """
    sq = np.einsum("kn,kn->k", flat, flat)
    largest = float(np.sqrt(np.max(sq, initial=0.0)))
    if not radius >= _MERGE_RESOLUTION * largest:
        raise InputError(
            f"merge radius {radius:.3g} is below {_MERGE_RESOLUTION:g} times the largest row norm {largest:.3g}"
        )
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
    """Seeded multistart Newton census of real critical points.

    Starts are one batched draw of random group elements (see `_draw`),
    every other one pulled halfway toward an anchor: u put on the group by
    `_unit_det` for SL and SL^±, and for O, SO, U and Sp the identity of
    the draw's component, diag(det sign, 1, ..., 1).  No anchor reads u's
    singular frame, whose polar factor is the closed-form nearest point on
    O, SO and U, so the census checks the closed forms without starting
    from their answer.  The starts are iterated on the square census
    system (`_System`; O's for SO and U; budget 200 sweeps, `sweeps`
    counts those run).  The Jacobian is affine in x apart from the det
    row, one cached tensor per group.  Each sweep's Armijo search tests
    the step lengths 2^-j, j = 0..29, all at once on the exact polynomial
    expansion of the residual along the step (see `_armijo`) and takes the
    largest passing length, as halving one length at a time would; a start
    with no passing length stops.  A stopped start is kept when its system
    residual is below 1e-9 and so is its certificate on g (`_residuals`,
    one batched call after the sweeps), which rejects the det -1 and
    non-C-linear roots of O's system.  Kept points are merged by single
    linkage at radius 1e-5 * (1 + ||u||), one representative (the lowest
    start index) per cluster, and returned sorted by distance, then
    entries.

    A sweep computes its Newton steps (`_gauss_newton_block`) over
    consecutive blocks of at most `_SWEEP_BLOCK` active starts, so its
    Jacobians are held for one block at a time and memory does not grow
    as starts * n^4; `_armijo` then runs once over all active starts, and
    keeps its numpy calls few for the many late sweeps with a handful of
    them (which fit in one block: no concatenation).  Every kernel acts on
    one start at a time (a block with an exactly singular Jacobian solves
    row by row), so a start's trajectory depends neither on which other
    starts are in the batch nor on the block size.  With the prefix-stable
    start sequence, a larger `starts` only ever adds points.

    u must be real (a complex matrix enters the unitary census through
    `embed_complex`), starts a positive integer and seed a non-negative
    integer; anything else raises InputError before any work.  Sizes
    n > 10 and more than 10,000 starts raise UnsupportedError before the
    draw.
    """
    u = as_square(u, "u")
    _require_real(u, "multistart_census", "u")
    if u.shape[0] != g.n:
        raise InputError("multistart_census: size mismatch")
    _check_positive_int(starts, "multistart_census: starts")
    _check_seed(seed, "multistart_census")
    n = g.n
    if n > _MAX_CENSUS_N:
        raise UnsupportedError(f"multistart_census supports n <= {_MAX_CENSUS_N}, got {n}")
    if starts > _MAX_STARTS:
        raise UnsupportedError(f"multistart_census supports starts <= {_MAX_STARTS}, got {starts}")
    rng = np.random.default_rng(seed)
    x0 = _draw(g, rng, starts)
    # Alternate pulled and raw starts.  On SL^± the identity as anchor
    # found fewer points than u at unit |det| (n = 4 and 5, 1000 starts).
    # Elsewhere a start is pulled toward the identity of its draw's
    # component, diag(det sign, 1, ..., 1): 0.5 (Q + I) is singular for a
    # det -1 draw Q of O.  (The reflection diag(1, ..., 1, -1) missed one
    # of the 16 points of random_general(4, 18) at 100 starts, seed 18.)
    if g.kind in ("sl", "sl_pm"):
        anchor = _unit_det(u[None].copy(), g.kind)
    else:
        anchor = np.tile(np.eye(n), (x0[0::2].shape[0], 1, 1))
        anchor[:, 0, 0] = np.where(np.linalg.det(x0[0::2]) < 0.0, -1.0, 1.0)
    x0[0::2] = 0.5 * (x0[0::2] + anchor)

    sys_ = _System(u, g)
    utol = 1.0 + frobenius_norm(u)
    converge_tol = 1e-11 * utol
    accept_tol = 1e-9

    x, active = x0, np.arange(starts)
    if sys_.has_det:  # the det row needs x^-1: a singular start fails unswept
        active = np.flatnonzero(np.linalg.det(x0) != 0.0)
        x = x0[active]
    frozen_x = np.empty((starts, n, n))
    frozen_ok = np.zeros(starts, dtype=bool)

    fvals = sys_.residual(x)
    phi = np.einsum("br,br->b", fvals, fvals)
    sweeps = 0
    while active.size:
        sweeps += 1
        blocks = [
            _gauss_newton_block(sys_, x[lo : lo + _SWEEP_BLOCK], fvals[lo : lo + _SWEEP_BLOCK])
            for lo in range(0, active.size, _SWEEP_BLOCK)
        ]
        delta, lin = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
        x, fvals, phi, stalled = _armijo(sys_, x, delta.reshape(-1, n, n), lin, fvals, phi)
        normf = np.sqrt(phi)
        # Converged, stalled and, at the end of the budget, every start stops.
        done = (normf <= converge_tol) | (sweeps == 200)
        done[stalled] = True
        if np.any(done):
            sel = np.flatnonzero(done)
            frozen_x[active[sel]] = x[sel]
            frozen_ok[active[sel]] = normf[sel] <= accept_tol
            keep = ~done
            x, phi, fvals, active = x[keep], phi[keep], fvals[keep], active[keep]

    # O's system, run for SO and U, also has roots off them: det -1 points
    # and points that are not C-linear.  One certificate on g rejects them.
    kept = np.flatnonzero(frozen_ok)
    frozen_ok[kept] = _residuals(frozen_x[kept], u, g) <= accept_tol
    good = frozen_x[frozen_ok]
    n_conv = int(np.sum(frozen_ok))
    n_fail = starts - n_conv

    radius = 1e-5 * utol
    pts: list[CriticalPoint] = []
    if n_conv:
        for i in _merge_representatives(good.reshape(n_conv, -1), radius):
            xi = good[i]
            cval = None
            if g.kind in ("sl", "sl_pm"):
                cval = float(np.trace(xi.T @ (u - xi)) / n)
            pts.append(critical_point_from(xi, u, g, c=cval))
        pts.sort(key=lambda p: (p.distance_sq, tuple(p.x.reshape(-1))))
    return CensusResult(
        points=pts,
        attempted=starts,
        converged=n_conv,
        failed=n_fail,
        merge_radius=radius,
        worst_residual=max((p.residual for p in pts), default=None),
        sweeps=sweeps,
    )
