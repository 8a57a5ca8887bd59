"""Dense matrix kernel: Frobenius geometry, eigensolvers, seeded inputs.

Every eigenproblem and determinant goes to LAPACK through numpy.linalg;
this module adds the package's contracts on top: input validation,
descending eigenvalue order, typed errors and seed checks.  scipy is
deliberately not imported (see the README's numerical notes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegeneracyError, InputError

# Relative symmetry slack accepted by sym_eig.
SYMMETRY_TOL = 1e-12


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a dense square array with finite entries and a
    finite squared Frobenius norm, the scale of every reported distance."""
    arr = np.asarray(a)
    if arr.dtype == object:
        raise InputError(f"{name}: entries must be numeric")
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128)
    else:
        arr = arr.astype(np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"{name}: expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise InputError(f"{name}: empty matrix")
    flat = (arr.view(np.float64) if arr.dtype == np.complex128 else arr).ravel()
    with np.errstate(over="ignore"):
        square = flat @ flat  # NaN or Infinity if an entry is
    if not math.isfinite(square):
        if not np.all(np.isfinite(flat)):
            raise InputError(f"{name}: entries must be finite")
        raise InputError(f"{name}: squared Frobenius norm overflows")
    return arr


def frobenius_norm(a) -> float:
    a = np.asarray(a)
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorisation s = q diag(values) q^t.

    q has orthonormal columns; values are sorted descending.
    """

    q: np.ndarray
    values: np.ndarray


def sym_eig(s) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric matrix (LAPACK via numpy.linalg.eigh)."""
    a = as_square(s, "sym_eig")
    if np.iscomplexobj(a):
        raise InputError("sym_eig: real input required")
    if frobenius_norm(a - a.T) > SYMMETRY_TOL * max(1.0, frobenius_norm(a)):
        raise InputError("sym_eig: matrix is not symmetric to tolerance")
    try:
        values, q = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("sym_eig: eigensolver did not converge") from exc
    return EigenDecomposition(q=q[:, ::-1], values=values[::-1])


def _check_seed(seed, name: str) -> None:
    """Raise InputError unless seed is a non-negative integer (not a bool)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError(f"{name}: seed must be a non-negative integer")


def _check_positive_int(value, what: str) -> None:
    """Raise InputError unless value is a positive integer, Python or numpy
    (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InputError(f"{what} must be a positive integer, got {value!r}")


def random_general(n: int, seed: int, complex_entries: bool = False) -> np.ndarray:
    """Seeded generic test matrix with i.i.d. uniform [-1, 1] entries
    (real, or real plus i times imaginary parts).

    Redraws until the squared singular values of u (from one SVD, not from
    the Gram matrix u^* u) are bounded away from zero and well separated,
    so downstream sign enumerations and branch selections never sit on a
    degeneracy.  Gives up after 100 attempts.  n must be a positive
    integer and seed a non-negative one.
    """
    _check_positive_int(n, "random_general: n")
    _check_seed(seed, "random_general")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        u = rng.uniform(-1.0, 1.0, (n, n))
        if complex_entries:
            u = u + 1j * rng.uniform(-1.0, 1.0, (n, n))
        vals = np.linalg.svd(u, compute_uv=False) ** 2
        scale = max(1.0, float(vals[0]))
        if float(vals[-1]) < 1e-8 * scale:
            continue
        if n > 1 and float(np.min(-np.diff(vals))) < 1e-6 * scale:
            continue
        return u
    raise DegeneracyError(f"random_general: no well-conditioned draw for n={n}, seed={seed}")


def matrix_to_json(a) -> dict:
    """Wire format: {"n": ..., "data": ...} real or {"n": ..., "re": ..., "im": ...}."""
    arr = as_square(a, "matrix")
    if np.iscomplexobj(arr):
        return {
            "n": int(arr.shape[0]),
            "re": [[float(x) for x in row] for row in arr.real],
            "im": [[float(x) for x in row] for row in arr.imag],
        }
    return {"n": int(arr.shape[0]), "data": [[float(x) for x in row] for row in arr]}


def _grid(obj, n: int, key: str) -> np.ndarray:
    grid = obj[key]
    if (
        not isinstance(grid, list)
        or len(grid) != n
        or any(not isinstance(row, list) or len(row) != n for row in grid)
    ):
        raise InputError(f"matrix JSON: '{key}' must be an {n} x {n} array")
    # JSON numbers only: numpy would also read "2.5", " 3 " and true as numbers.
    if any(type(v) is bool or not isinstance(v, (int, float)) for row in grid for v in row):
        raise InputError(f"matrix JSON: non-numeric entry in '{key}'")
    try:
        out = np.array(grid, dtype=float)
    except OverflowError as exc:  # an integer too large for a double
        raise InputError(f"matrix JSON: entries in '{key}' must be finite") from exc
    if not np.all(np.isfinite(out)):
        raise InputError(f"matrix JSON: entries in '{key}' must be finite")
    return out


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix wire format, validating shape and finiteness."""
    if not isinstance(obj, dict):
        raise InputError("matrix JSON: expected an object")
    if "n" not in obj or not isinstance(obj["n"], int) or isinstance(obj["n"], bool):
        raise InputError("matrix JSON: missing integer field 'n'")
    n = obj["n"]
    if n < 1:
        raise InputError("matrix JSON: 'n' must be positive")
    if "data" in obj:
        return _grid(obj, n, "data")
    if "re" in obj and "im" in obj:
        return _grid(obj, n, "re") + 1j * _grid(obj, n, "im")
    raise InputError("matrix JSON: expected 'data' or 're'/'im' fields")
