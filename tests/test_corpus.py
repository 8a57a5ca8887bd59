"""The checked-in CLI corpus: every command in `corpus/expected.json`
replayed in-process against its recorded exit code and report.

Exit codes, keys, strings, integers (counts, det signs) and the order of
results compare exactly.  `residual` values compare to 1e-12 absolute
(they are about 1e-15); every other float (distances, multipliers c,
matrix entries) to 1e-12 relative, with a 1e-12 absolute floor for values
at zero, because another BLAS may differ in the last bits.  Regenerate
with `tests/corpus/regenerate.py`.
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
