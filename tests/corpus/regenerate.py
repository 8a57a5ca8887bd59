"""Regenerate the CLI corpus: the input files and the expected reports.

Run from the repository root:

    PYTHONPATH=src python tests/corpus/regenerate.py

Each case runs `groupnear.cli.main` in-process and records its argv, exit
code and parsed stdout report (None for a refusal, which prints nothing
on stdout) in `expected.json`.  Arguments ending in `.json` name files in
this directory.  `tests/test_corpus.py` replays every case and compares.
A change that rewrites `expected.json` says which values moved, and why.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from groupnear import cli
from groupnear.matcore import matrix_to_json, random_general

HERE = Path(__file__).resolve().parent

INPUTS = {
    "random_general_3_0.json": matrix_to_json(random_general(3, 0)),
    "random_general_4_0.json": matrix_to_json(random_general(4, 0)),
    "small_random_general_3_0.json": matrix_to_json(1e-3 * random_general(3, 0)),
    "tiny_random_general_3_0.json": matrix_to_json(1e-9 * random_general(3, 0)),
    "below_sl_range_3_0.json": matrix_to_json(1e-31 * random_general(3, 0)),
    "antidiag.json": {"n": 2, "data": [[0, 2], [1, 0]]},
    "diag.json": {"n": 2, "data": [[2, 0], [0, 0.5]]},
    "scaled_identity.json": {"n": 2, "data": [[2, 0], [0, 2]]},
    "rank1.json": {"m": 1, "weights": [-3, -1, 1, 3]},
    "cube.json": {
        "m": 3,
        "weights": [[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)],
    },
}

MATRICES = ("random_general_3_0.json", "antidiag.json", "diag.json")
GROUPS = ("orthogonal", "special-orthogonal", "unitary", "sl", "sl-pm")

CASES = [
    *([command, group, matrix] for command in ("nearest", "critical") for group in GROUPS for matrix in MATRICES),
    # SL^pm at scale 1e-3: well separated, so solved with all 8 points.
    ["critical", "sl-pm", "small_random_general_3_0.json"],
    # At scale 1e-9 every closed-form group solves u as at scale 1: its
    # refusals are relative to sigma_1.  SL^pm's range starts at
    # sigma_1 = 1e-30, so at 1e-31 it refuses (exit 3) where O does not.
    ["nearest", "orthogonal", "tiny_random_general_3_0.json"],
    ["critical", "special-orthogonal", "tiny_random_general_3_0.json"],
    ["critical", "unitary", "tiny_random_general_3_0.json"],
    ["critical", "sl-pm", "tiny_random_general_3_0.json"],
    ["critical", "sl-pm", "below_sl_range_3_0.json"],
    ["nearest", "orthogonal", "below_sl_range_3_0.json"],
    # 2 I has equal singular values: its nearest point I is unique, while
    # the enumeration of its critical points is refused (exit 3, below).
    ["nearest", "orthogonal", "scaled_identity.json"],
    ["bkk", "rank1.json"],
    ["bkk", "cube.json"],
    # The symplectic census, the benchmarked census path, end to end.
    ["--starts", "200", "critical", "symplectic", "antidiag.json"],
    ["--starts", "200", "critical", "symplectic", "random_general_4_0.json"],
    # One refusal per nonzero exit code but 1 (a failed check), which
    # `tests/test_cli.py` forces with a failing suite runner.
    ["nearest", "orthogonal", "missing.json"],  # 2: unreadable input
    ["critical", "orthogonal", "scaled_identity.json"],  # 3: degenerate input
    ["nearest", "symplectic", "antidiag.json"],  # 4: unsupported
    # The self-checks: every suite, and the SL suite on two more seeds.
    ["verify", "all"],
    ["--seed", "3", "verify", "sl"],
    ["--seed", "11", "verify", "sl"],
]


def resolve(argv: list[str], directory: Path) -> list[str]:
    """argv with every `.json` argument made a path in directory."""
    return [str(directory / a) if a.endswith(".json") else a for a in argv]


def run(argv: list[str]) -> tuple[int, dict | None]:
    """(exit code, parsed stdout report or None) of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(resolve(argv, HERE))
    text = out.getvalue()
    return code, json.loads(text) if text else None


def main() -> None:
    for name, obj in INPUTS.items():
        (HERE / name).write_text(json.dumps(obj) + "\n")
    cases = []
    for argv in CASES:
        code, report = run(argv)
        cases.append({"argv": argv, "exit_code": code, "report": report})
    (HERE / "expected.json").write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {HERE / 'expected.json'}")


if __name__ == "__main__":
    main()
