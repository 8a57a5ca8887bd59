"""Command-line front end: JSON reports for nearest-matrix queries, critical
point censuses, verification suites, and torus volume bounds.

Reports go to stdout through the standard JSON encoder: keys in a fixed
order, floats in their shortest round-trip spelling (every value parses
back to the same double), so identical invocations are byte-identical.
Timing and diagnostics go to stderr.  Exit codes: 0 success, 1
verification failure, 2 parse or validation problem, 3 numerical
degeneracy, 4 unsupported.
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
from typing import Callable, NamedTuple, Optional

import numpy as np

from .critsearch import _MAX_STARTS, CriticalPoint, GroupSpec, multistart_census
from .errors import (
    ConvergenceError,
    DegeneracyError,
    InputError,
    UnsupportedError,
)
from .matcore import matrix_from_json, matrix_to_json, random_general
from .orthonear import (
    enumerate_orthogonal_critical,
    enumerate_special_orthogonal_critical,
    enumerate_unitary_critical,
    nearest_orthogonal,
    nearest_special_orthogonal,
    nearest_unitary,
)
from .slnear import nearest_sl, nearest_sl_plus, sl_critical_points, sl_ed_degree, sl_plus_critical_points
from .torused import (
    WeightSet,
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


@dataclass
class RunReport:
    """One command's outcome; `to_json` is its stdout report, in key order."""

    command: str
    group: dict
    input_digest: str
    results: list
    counts: dict
    seed: int
    extra: dict = field(default_factory=dict)  # command-specific keys, after seed
    exit_code: int = EXIT_OK

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "group": self.group,
            "input_digest": self.input_digest,
            "results": self.results,
            "counts": self.counts,
            "seed": self.seed,
            **self.extra,
        }


def _read_json(path: str):
    """(parsed JSON, sha256 hex digest of the raw bytes) of the file at path."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
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


def _symplectic_count(n: int) -> int:
    if n not in _SYMPLECTIC_COUNTS:
        raise UnsupportedError("symplectic census covers n in {2, 4, 6}")
    return _SYMPLECTIC_COUNTS[n]


class _Group(NamedTuple):
    """A CLI group: its ED degree at size n (reported as `expected`), its
    solver for all real critical points and its nearest-point solver.
    `nearest` is None where that command is not defined, and `critical` for
    the symplectic census, which `cmd_critical` runs itself."""

    expected: Callable[[int], int]
    critical: Optional[Callable]
    nearest: Optional[Callable]


_GROUPS = {
    "orthogonal": _Group(lambda n: 2**n, enumerate_orthogonal_critical, nearest_orthogonal),
    "special-orthogonal": _Group(
        lambda n: 2 ** (n - 1), enumerate_special_orthogonal_critical, nearest_special_orthogonal
    ),
    "unitary": _Group(lambda m: 2**m, enumerate_unitary_critical, nearest_unitary),
    "sl": _Group(lambda n: n * 2 ** (n - 1), sl_plus_critical_points, nearest_sl_plus),
    "sl-pm": _Group(lambda n: n * 2**n, sl_critical_points, nearest_sl),
    "symplectic": _Group(_symplectic_count, None, None),
}


def _groups_for(command: str) -> list[str]:
    return [name for name, row in _GROUPS.items() if command == "critical" or row.nearest]


def _lookup(name: str, command: str) -> _Group:
    """The table row of a group the command covers; a known group it does
    not cover is unsupported, any other name is bad input."""
    allowed = _groups_for(command)
    if name in allowed:
        return _GROUPS[name]
    if name in _GROUPS or name == "torus":
        raise UnsupportedError(f"{command} is not defined for group {name!r}")
    raise InputError(f"unknown group {name!r}; choose from {', '.join(allowed)}")


def _read_matrix(path: str, group: str):
    """(u, group descriptor, input digest); a unitary group is described by
    m.  Whether u may be complex is its solver's rule, not the reader's."""
    obj, digest = _read_json(path)
    u = matrix_from_json(obj)
    return u, {"kind": group, "m" if group == "unitary" else "n": u.shape[0]}, digest


def cmd_nearest(args) -> RunReport:
    row = _lookup(args.group, "nearest")
    u, group, digest = _read_matrix(args.input, args.group)
    point = row.nearest(u)
    summary = {**_point_summary(point), "x": matrix_to_json(point.x)}
    return RunReport("nearest", group, digest, [summary], {"expected": row.expected(u.shape[0])}, args.seed)


def cmd_critical(args) -> RunReport:
    row = _lookup(args.group, "critical")
    u, group, digest = _read_matrix(args.input, args.group)
    n = u.shape[0]
    # Refuses unsupported sizes before any solver runs.
    counts = {"expected": row.expected(n)}
    if args.group == "symplectic":
        census = multistart_census(u, GroupSpec("symplectic", n), starts=args.starts, seed=args.seed)
        points = census.points
        diagnostics = ("attempted", "converged", "failed", "stalled", "budget", "merge_radius", "worst_residual", "sweeps")
        counts.update(expected_source="literature", **{k: getattr(census, k) for k in diagnostics})
    else:
        points = row.critical(u)
    return RunReport("critical", group, digest, [_point_summary(p) for p in points], counts, args.seed)


def cmd_bkk(args) -> RunReport:
    obj, digest = _read_json(args.weightset)
    w = weightset_from_json(obj)
    bound = bkk_bound(w)
    counts = {"expected": bound}
    if w.m == 1:
        draw = random_rank1_coefficients(w, args.seed)
        counts["observed"] = torus_critical_count_rank1(w, draw)
    extra = {"lattice_index": w.lattice_index}
    return RunReport("bkk", {"kind": "torus", "m": w.m}, digest, [], counts, args.seed, extra)


def _check(name: str, expected: int, observed: int) -> dict:
    expected, observed = int(expected), int(observed)
    return {"name": name, "expected": expected, "observed": observed, "pass": expected == observed}


def _suite_orthogonal(seed: int, starts: int) -> list[dict]:
    checks = []
    for n in (2, 3):
        points = _GROUPS["orthogonal"].critical(random_general(n, seed))
        expected = _GROUPS["orthogonal"].expected(n)
        under_tol = sum(p.residual < 1e-7 for p in points)
        rotations = _GROUPS["special-orthogonal"].expected(n)
        checks.append(_check(f"orthogonal n={n} critical count", expected, len(points)))
        checks.append(_check(f"orthogonal n={n} residuals under tol", expected, under_tol))
        checks.append(_check(f"orthogonal n={n} det +1 count", rotations, sum(p.det_sign == 1 for p in points)))
    return checks


def _suite_special_orthogonal(seed: int, starts: int) -> list[dict]:
    so = _GROUPS["special-orthogonal"]
    checks = []
    for n in (2, 3):
        u = random_general(n, seed)
        best = so.nearest(u)
        minimal = all(best.distance_sq <= p.distance_sq + 1e-9 for p in so.critical(u))
        checks.append(_check(f"special-orthogonal n={n} det sign", 1, best.det_sign))
        checks.append(_check(f"special-orthogonal n={n} minimal", 1, int(minimal)))
    return checks


def _suite_unitary(seed: int, starts: int) -> list[dict]:
    checks = []
    for m in (1, 2):
        points = _GROUPS["unitary"].critical(random_general(m, seed, complex_entries=True))
        expected = _GROUPS["unitary"].expected(m)
        checks.append(_check(f"unitary m={m} critical count", expected, len(points)))
        under_tol = sum(p.residual < 1e-7 for p in points)
        checks.append(_check(f"unitary m={m} residuals under tol", expected, under_tol))
    return checks


def _suite_sl(seed: int, starts: int) -> list[dict]:
    # The distinct complex multipliers number the ED degree of SL^pm.
    checks = [
        _check(f"sl n={n} distinct multiplier count", _GROUPS["sl-pm"].expected(n), sl_ed_degree(n, seed))
        for n in (1, 2, 3)
    ]
    # Real points, by the sign of c: proved 2^n in all when |det u| < 1;
    # when |det u| > 1, 2^n - 1 at c < 0 and, for generic u, an odd number
    # at c > 0.
    for n in (1, 2, 3, 4):
        u = random_general(n, seed)
        unit = u / abs(np.linalg.det(u)) ** (1.0 / n)
        inside = sl_critical_points(0.5 * unit)
        checks.append(_check(f"sl n={n} real count at |det u| = 2^-n", 2**n, len(inside)))
        outside = [p.c for p in sl_critical_points(2.0 * unit)]
        checks.append(_check(f"sl n={n} real count at c < 0, |det u| = 2^n", 2**n - 1, sum(c < 0 for c in outside)))
        odd = sum(c > 0 for c in outside) % 2
        checks.append(_check(f"sl n={n} odd real count at c > 0, |det u| = 2^n (proved for generic u)", 1, odd))
    return checks


def _suite_torus(seed: int, starts: int) -> list[dict]:
    checks = []
    for d, index, expected in ((1, 1, 2), (3, 1, 6), (5, 1, 10), (7, 1, 14), (2, 2, 2), (4, 2, 4)):
        w = WeightSet(1, tuple((k,) for k in range(-d, d + 1, 2)), (1,) * (d + 1), lattice_index=index)
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
        volume = math.factorial(m) * (2 * r) ** m
        checks.append(_check(f"torus box [-{r}, {r}]^{m} bound", volume, bkk_bound(w)))
    for m in (2, 3):
        cross = tuple(tuple(s * (i == j) for j in range(m)) for i in range(m) for s in (1, -1))
        w = WeightSet(m, cross, (1,) * len(cross))
        checks.append(_check(f"torus cross-polytope m={m} bound", 2**m, bkk_bound(w)))
    return checks


def _suite_symplectic(seed: int, starts: int) -> list[dict]:
    checks = []
    u = random_general(2, seed)
    sp2 = multistart_census(u, GroupSpec("symplectic", 2), starts=starts, seed=seed)
    sl2 = multistart_census(u, GroupSpec("sl", 2), starts=starts, seed=seed)
    checks.append(_check("symplectic n=2 census equals sl n=2", len(sl2), len(sp2)))
    u4 = random_general(4, seed)
    sp4 = multistart_census(u4, GroupSpec("symplectic", 4), starts=starts, seed=seed)
    within = 1 <= len(sp4) <= _GROUPS["symplectic"].expected(4)
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
        checks.extend(_SUITE_RUNNERS[name](args.seed, args.starts))
    passed = sum(1 for c in checks if c["pass"])
    for c in checks:
        if not c["pass"]:
            print(f"FAIL {c['name']}: expected {c['expected']}, observed {c['observed']}", file=sys.stderr)
    return RunReport(
        command="verify",
        group={"kind": "suite", "name": args.suite},
        input_digest=hashlib.sha256(f"suite:{args.suite}".encode()).hexdigest(),
        results=[],
        counts={"expected": len(checks), "observed": passed},
        seed=args.seed,
        extra={"checks": checks},
        exit_code=EXIT_OK if passed == len(checks) else EXIT_VERIFY_FAILED,
    )


def _option(convert, accept, what: str):
    """An argparse type: convert the text, and refuse it at parse time
    unless the value passes accept."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupnear",
        description="Nearest matrices and critical-point counts over matrix groups.",
    )
    parser.add_argument(
        "--seed",
        type=_option(int, lambda s: s >= 0, "a non-negative integer"),
        default=0,
        help="seed for all randomized steps",
    )
    parser.add_argument(
        "--starts",
        type=_option(int, lambda s: 1 <= s <= _MAX_STARTS, f"an integer from 1 to {_MAX_STARTS}"),
        default=1000,
        help=f"multistart attempts for censuses (at most {_MAX_STARTS})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nearest", help="nearest group element to a data matrix")
    p.add_argument("group", help="one of: " + ", ".join(_groups_for("nearest")))
    p.add_argument("input", help="matrix JSON file")
    p.set_defaults(func=cmd_nearest)

    p = sub.add_parser("critical", help="all real critical points")
    p.add_argument("group", help="one of: " + ", ".join(_groups_for("critical")))
    p.add_argument("input", help="matrix JSON file")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("verify", help="seeded verification suites")
    p.add_argument("suite", choices=(*_SUITE_RUNNERS, "all"))
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
    print(json.dumps(report.to_json()))
    print(f"elapsed_ms: {round(1000.0 * (time.monotonic() - start))}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
