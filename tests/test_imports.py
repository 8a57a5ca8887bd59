"""Import-time footprint of the package."""

import subprocess
import sys


def test_import_loads_no_scipy():
    # scipy.linalg alone adds tens of MB of resident memory and a noticeable
    # import delay to every CLI run; the package must not pull it in at load.
    code = "import sys, groupnear; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_mpmath():
    # The elimination chain runs in double precision; mpmath would add
    # resident memory and import time to every run for nothing.
    code = "import sys, groupnear; print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
