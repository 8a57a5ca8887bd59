"""Command-line front end: JSON reports for nearest-matrix queries, critical
point censuses, verification suites, and torus volume bounds.

Reports go to stdout with a fixed key order and 17-significant-digit float
formatting, so identical invocations are byte-identical.  Timing and
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 parse or validation problem, 3 numerical degeneracy, 4 unsupported.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .critsearch import CriticalPoint, GroupSpec, multistart_census
from .errors import (
    ConvergenceError,
    DegeneracyError,
    InputError,
    UnsupportedError,
)
from .matcore import matrix_from_json, matrix_to_json, random_general
from .orthonear import (
    enumerate_orthogonal_critical,
    enumerate_unitary_critical,
    nearest_orthogonal,
    nearest_special_orthogonal,
    nearest_unitary,
)
from .slnear import nearest_sl, sl_critical_points, sl_ed_degree
from .torused import (
    bkk_bound,
    random_rank1_coefficients,
    torus_critical_count_rank1,
    weightset_from_json,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_UNSUPPORTED = 4

_MATRIX_GROUPS = ("orthogonal", "special-orthogonal", "unitary", "sl", "sl-pm")
_CENSUS_GROUPS = _MATRIX_GROUPS + ("symplectic",)
_SUITES = ("orthogonal", "special-orthogonal", "unitary", "sl", "torus", "symplectic", "all")


def _fmt(value) -> str:
    """Canonical JSON text: insertion-ordered keys, floats at 17 significant
    digits (round-trip exact for doubles)."""
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return "null"
    return json.dumps(value)


@dataclass
class RunReport:
    """One command's outcome.  elapsed_ms is tracked but deliberately kept
    out of the canonical stdout serialization; it goes to stderr so that
    equal invocations stay byte-identical."""

    command: str
    group: dict
    input_digest: str
    results: list = field(default_factory=list)
    counts: dict | None = None
    seed: int = 0
    elapsed_ms: int = 0
    checks: list | None = None
    extra: dict | None = None
    exit_code: int = EXIT_OK

    def to_json(self) -> dict:
        out = {
            "command": self.command,
            "group": self.group,
            "input_digest": self.input_digest,
            "results": self.results,
            "counts": self.counts,
            "seed": self.seed,
        }
        if self.checks is not None:
            out["checks"] = self.checks
        if self.extra:
            out.update(self.extra)
        return out


def _digest_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from exc


def _load_json(raw: bytes):
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc


def _point_summary(point: CriticalPoint) -> dict:
    out = {
        "distance_sq": point.distance_sq,
        "det_sign": point.det_sign,
        "residual": point.residual,
    }
    if point.c is not None:
        out["c"] = point.c
    return out


# Complex critical counts over Sp_n as reported in the literature; the real
# census only gives lower bounds against them.
_SYMPLECTIC_COUNTS = {2: 4, 4: 24, 6: 544}


def _expected_count(group: str, n: int) -> int:
    if group == "orthogonal":
        return 2**n
    if group == "special-orthogonal":
        return 2 ** (n - 1)
    if group == "unitary":
        return 2**n
    if group == "sl":
        return n * 2 ** (n - 1)
    if group == "sl-pm":
        return n * 2**n
    if group == "symplectic":
        if n not in _SYMPLECTIC_COUNTS:
            raise UnsupportedError("symplectic census covers n in {2, 4, 6}")
        return _SYMPLECTIC_COUNTS[n]
    raise UnsupportedError(f"no closed-form count for group {group!r}")


def _read_matrix(path: str, group: str):
    raw = _digest_file(path)
    digest = hashlib.sha256(raw).hexdigest()
    u = matrix_from_json(_load_json(raw))
    if group == "unitary":
        u = u.astype(complex)
    elif np.iscomplexobj(u):
        raise InputError(f"group {group!r} takes a real matrix")
    return u, digest


def _group_descriptor(group: str, n: int) -> dict:
    if group == "unitary":
        return {"kind": group, "m": n}
    return {"kind": group, "n": n}


def _known_group(group: str, allowed: tuple, command: str) -> None:
    if group in allowed:
        return
    if group in _CENSUS_GROUPS + ("torus",):
        raise UnsupportedError(f"{command} is not defined for group {group!r}")
    raise InputError(f"unknown group {group!r}; choose from {', '.join(allowed)}")


def cmd_nearest(args) -> RunReport:
    group = args.group
    _known_group(group, _MATRIX_GROUPS, "nearest")
    u, digest = _read_matrix(args.input, group)
    n = u.shape[0]
    component = args.component
    if component is not None and group not in ("sl", "sl-pm"):
        raise InputError("--component applies only to the sl groups")
    if group == "orthogonal":
        point = nearest_orthogonal(u)
    elif group == "special-orthogonal":
        point = nearest_special_orthogonal(u)
    elif group == "unitary":
        point = nearest_unitary(u)
    else:
        if component is None:
            component = "plus" if group == "sl" else "pm"
        point = nearest_sl(u, component)
    summary = _point_summary(point)
    summary["x"] = matrix_to_json(point.x)
    return RunReport(
        command="nearest",
        group=_group_descriptor(group, n),
        input_digest=digest,
        results=[summary],
        counts={"expected": _expected_count(group, n)},
        seed=args.seed,
    )


def cmd_critical(args) -> RunReport:
    group = args.group
    _known_group(group, _CENSUS_GROUPS, "critical")
    u, digest = _read_matrix(args.input, group)
    n = u.shape[0]
    # Refuses unsupported sizes before any solver runs.
    counts = {"expected": _expected_count(group, n)}
    if group == "orthogonal":
        points = enumerate_orthogonal_critical(u)
    elif group == "special-orthogonal":
        points = [p for p in enumerate_orthogonal_critical(u) if p.det_sign == 1]
    elif group == "unitary":
        points = enumerate_unitary_critical(u)
    elif group in ("sl", "sl-pm"):
        points = sl_critical_points(u)
        if group == "sl":
            points = [p for p in points if p.det_sign == 1]
    else:
        census = multistart_census(
            u, GroupSpec("symplectic", n), starts=args.starts, seed=args.seed
        )
        points = list(census)
        counts.update(
            expected_source="literature",
            attempted=census.attempted,
            converged=census.converged,
            failed=census.failed,
            merge_radius=census.merge_radius,
            worst_residual=census.worst_residual,
            sweeps=census.sweeps,
        )
    results = [_point_summary(p) for p in points]
    return RunReport(
        command="critical",
        group=_group_descriptor(group, n),
        input_digest=digest,
        results=results,
        counts=counts,
        seed=args.seed,
    )


def cmd_bkk(args) -> RunReport:
    raw = _digest_file(args.weightset)
    digest = hashlib.sha256(raw).hexdigest()
    obj = _load_json(raw)
    if isinstance(obj, dict) and obj.get("m") == 1 and isinstance(obj.get("weights"), list):
        # Rank-one weight vectors may be written as bare integers.
        if all(isinstance(v, int) and not isinstance(v, bool) for v in obj["weights"]):
            obj = dict(obj)
            obj["weights"] = [[v] for v in obj["weights"]]
    w = weightset_from_json(obj)
    bound = bkk_bound(w)
    counts = {"expected": bound}
    if w.m == 1:
        draw = random_rank1_coefficients(w, args.seed)
        counts["observed"] = torus_critical_count_rank1(w, draw)
    return RunReport(
        command="bkk",
        group={"kind": "torus", "m": w.m},
        input_digest=digest,
        results=[],
        counts=counts,
        seed=args.seed,
        extra={"lattice_index": w.lattice_index},
    )


def _check(name: str, expected: int, observed: int) -> dict:
    return {
        "name": name,
        "expected": int(expected),
        "observed": int(observed),
        "pass": int(expected) == int(observed),
    }


def _suite_orthogonal(seed: int, tol: float, starts: int) -> list[dict]:
    checks = []
    for n in (2, 3):
        u = random_general(n, seed)
        points = enumerate_orthogonal_critical(u)
        checks.append(_check(f"orthogonal n={n} critical count", 2**n, len(points)))
        checks.append(
            _check(
                f"orthogonal n={n} residuals under tol",
                2**n,
                sum(1 for p in points if p.residual < tol),
            )
        )
        checks.append(
            _check(
                f"orthogonal n={n} det +1 count",
                2 ** (n - 1),
                sum(1 for p in points if p.det_sign == 1),
            )
        )
    return checks


def _suite_special_orthogonal(seed: int, tol: float, starts: int) -> list[dict]:
    checks = []
    for n in (2, 3):
        u = random_general(n, seed)
        best = nearest_special_orthogonal(u)
        plus = [p for p in enumerate_orthogonal_critical(u) if p.det_sign == 1]
        minimal = all(best.distance_sq <= p.distance_sq + 1e-9 for p in plus)
        checks.append(_check(f"special-orthogonal n={n} det sign", 1, best.det_sign))
        checks.append(_check(f"special-orthogonal n={n} minimal", 1, int(minimal)))
    return checks


def _suite_unitary(seed: int, tol: float, starts: int) -> list[dict]:
    checks = []
    for m in (1, 2):
        u = random_general(m, seed, complex_entries=True)
        points = enumerate_unitary_critical(u)
        checks.append(_check(f"unitary m={m} critical count", 2**m, len(points)))
        checks.append(
            _check(
                f"unitary m={m} residuals under tol",
                2**m,
                sum(1 for p in points if p.residual < tol),
            )
        )
    return checks


def _suite_sl(seed: int, tol: float, starts: int) -> list[dict]:
    return [
        _check(f"sl n={n} distinct multiplier count", n * 2**n, sl_ed_degree(n, seed))
        for n in (1, 2, 3)
    ]


def _suite_torus(seed: int, tol: float, starts: int) -> list[dict]:
    from .torused import WeightSet

    checks = []
    for d, index, expected in ((1, 1, 2), (3, 1, 6), (5, 1, 10), (7, 1, 14), (2, 2, 2), (4, 2, 4)):
        w = WeightSet(
            1,
            tuple((k,) for k in range(-d, d + 1, 2)),
            (1,) * (d + 1),
            lattice_index=index,
        )
        draw = random_rank1_coefficients(w, seed + d)
        checks.append(
            _check(f"torus d={d} lattice_index={index} count", expected, torus_critical_count_rank1(w, draw))
        )
    # Bounds at ranks 2 and 3 against volumes computed from the shape: the
    # lattice points of the box [-r, r]^m (with interior and edge points on
    # its faces) give m! (2r)^m, the cross-polytope conv(±e_i) gives 2^m.
    for m, r in ((2, 3), (3, 2)):
        box = tuple(itertools.product(range(-r, r + 1), repeat=m))
        w = WeightSet(m, box, (1,) * len(box))
        checks.append(_check(f"torus box [-{r}, {r}]^{m} bound", math.factorial(m) * (2 * r) ** m, bkk_bound(w)))
    for m in (2, 3):
        cross = tuple(tuple(s * (i == j) for j in range(m)) for i in range(m) for s in (1, -1))
        w = WeightSet(m, cross, (1,) * len(cross))
        checks.append(_check(f"torus cross-polytope m={m} bound", 2**m, bkk_bound(w)))
    return checks


def _suite_symplectic(seed: int, tol: float, starts: int) -> list[dict]:
    checks = []
    u = random_general(2, seed)
    sp2 = multistart_census(u, GroupSpec("symplectic", 2), starts=starts, seed=seed)
    sl2 = multistart_census(u, GroupSpec("sl", 2), starts=starts, seed=seed)
    checks.append(_check("symplectic n=2 census equals sl n=2", len(sl2), len(sp2)))
    u4 = random_general(4, seed)
    sp4 = multistart_census(u4, GroupSpec("symplectic", 4), starts=starts, seed=seed)
    within = 1 <= len(sp4) <= 24
    clean = all(p.residual < 1e-9 for p in sp4)
    checks.append(_check("symplectic n=4 census within complex bound", 1, int(within)))
    checks.append(_check("symplectic n=4 residuals under 1e-9", 1, int(clean)))
    return checks


_SUITE_RUNNERS = {
    "orthogonal": _suite_orthogonal,
    "special-orthogonal": _suite_special_orthogonal,
    "unitary": _suite_unitary,
    "sl": _suite_sl,
    "torus": _suite_torus,
    "symplectic": _suite_symplectic,
}


def cmd_verify(args) -> RunReport:
    names = list(_SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(_SUITE_RUNNERS[name](args.seed, args.tol, args.starts))
    passed = sum(1 for c in checks if c["pass"])
    for c in checks:
        if not c["pass"]:
            print(
                f"FAIL {c['name']}: expected {c['expected']}, observed {c['observed']}",
                file=sys.stderr,
            )
    digest = hashlib.sha256(f"suite:{args.suite}".encode()).hexdigest()
    return RunReport(
        command="verify",
        group={"kind": "suite", "name": args.suite},
        input_digest=digest,
        results=[],
        counts={"expected": len(checks), "observed": passed},
        seed=args.seed,
        checks=checks,
        exit_code=EXIT_OK if passed == len(checks) else EXIT_VERIFY_FAILED,
    )


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, refused at parse time."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _tol(text: str) -> float:
    """A --tol value: a finite positive number, refused at parse time."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not math.isfinite(tol) or tol <= 0.0:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return tol


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupnear",
        description="Nearest matrices and critical-point counts over matrix groups.",
    )
    parser.add_argument("--seed", type=_seed, default=0, help="seed for all randomized steps")
    parser.add_argument("--tol", type=_tol, default=1e-7, help="residual threshold for checks")
    parser.add_argument("--starts", type=int, default=1000, help="multistart attempts for censuses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nearest", help="nearest group element to a data matrix")
    p.add_argument("group", help="one of: " + ", ".join(_MATRIX_GROUPS))
    p.add_argument("input", help="matrix JSON file")
    p.add_argument("--component", choices=("plus", "pm"), default=None)
    p.set_defaults(func=cmd_nearest)

    p = sub.add_parser("critical", help="all real critical points")
    p.add_argument("group", help="one of: " + ", ".join(_CENSUS_GROUPS))
    p.add_argument("input", help="matrix JSON file")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("verify", help="seeded verification suites")
    p.add_argument("suite", choices=_SUITES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bkk", help="normalized-volume bound for a torus weight set")
    p.add_argument("weightset", help="weight-set JSON file")
    p.set_defaults(func=cmd_bkk)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        report = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegeneracyError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except UnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    report.elapsed_ms = int(round(1000.0 * (time.monotonic() - start)))
    print(_fmt(report.to_json()))
    print(f"elapsed_ms: {report.elapsed_ms}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
