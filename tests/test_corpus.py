"""The checked-in CLI corpus: every command in `corpus/expected.json`
replayed in-process against its recorded exit code and report.

Exit codes, keys, strings, integers (counts, det signs) and the order of
results compare exactly.  `residual` values compare to 1e-12 absolute
(they are about 1e-15); every other float (distances, multipliers c,
matrix entries) to 1e-12 relative, with a 1e-12 absolute floor for values
at zero, because another BLAS may differ in the last bits.  Regenerate
with `tests/corpus/regenerate.py`.  Every `nearest` and `critical` report
on a corpus matrix must also stay in the group it names.
"""

import json
import math
from pathlib import Path

import pytest

from groupnear import cli

CORPUS = Path(__file__).resolve().parent / "corpus"
CASES = json.loads((CORPUS / "expected.json").read_text())


def _mismatches(expected, observed, path="report", key=None):
    """Where observed differs from expected, as readable paths."""
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or list(observed) != list(expected):
            return [f"{path}: keys {list(observed) if isinstance(observed, dict) else observed!r}"]
        return [m for k in expected for m in _mismatches(expected[k], observed[k], f"{path}.{k}", k)]
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [f"{path}: length {len(observed) if isinstance(observed, list) else observed!r}"]
        return [m for i, (e, o) in enumerate(zip(expected, observed)) for m in _mismatches(e, o, f"{path}[{i}]", key)]
    if isinstance(expected, float) and isinstance(observed, (float, int)) and not isinstance(observed, bool):
        rel = 0.0 if key == "residual" else 1e-12
        ok = math.isclose(observed, expected, rel_tol=rel, abs_tol=1e-12)
    else:
        ok = type(observed) is type(expected) and observed == expected
    return [] if ok else [f"{path}: {observed!r} != {expected!r}"]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_report_matches_corpus(case, capsys):
    argv = [str(CORPUS / a) if a.endswith(".json") else a for a in case["argv"]]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == case["exit_code"]
    report = json.loads(out) if out else None
    assert _mismatches(case["report"], report) == []


MATRICES = sorted(p.name for p in CORPUS.glob("*.json") if "n" in json.loads(p.read_text()))
# The det +1 groups: each of their points must report det_sign +1.
_DET_PLUS = ("sl", "special-orthogonal")


@pytest.mark.parametrize(
    "command,group",
    [(command, group) for command in ("nearest", "critical") for group in cli._groups_for(command)],
    ids=str,
)
def test_reports_stay_in_their_group(command, group, capsys):
    """On every corpus matrix a report is about the group it names: its
    expected count is that group's, and on a det +1 group every point
    has det sign +1.  A refusal prints no report."""
    reports = 0
    for name in MATRICES:
        code = cli.main([command, group, str(CORPUS / name)])
        out = capsys.readouterr().out
        if code != cli.EXIT_OK:
            assert out == ""
            continue
        report = json.loads(out)
        reports += 1
        size = report["group"]["m" if group == "unitary" else "n"]
        assert report["group"]["kind"] == group
        assert report["counts"]["expected"] == cli._GROUPS[group].expected(size)
        if group in _DET_PLUS:
            assert [r["det_sign"] for r in report["results"]] == [1] * len(report["results"])
    assert reports >= 3
