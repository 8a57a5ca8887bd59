import os
from pathlib import Path

import pytest

# pytest finds the package under src/ through pyproject's `pythonpath`; the
# interpreters the tests start (the CLI, import probes) need it on
# PYTHONPATH too, so a plain checkout runs the suite without an install.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

_VERDICTS = []


@pytest.fixture
def verdict():
    """Collect a one-line verdict to print in the terminal summary.

    Capture redirects file descriptors during tests, so lines recorded here
    are flushed by the summary hook instead, where they stay visible.
    """
    return _VERDICTS.append


def pytest_terminal_summary(terminalreporter):
    if _VERDICTS:
        terminalreporter.section("acceptance summary")
        for line in _VERDICTS:
            terminalreporter.line(line)
