"""The simulator's entry points must not pull numpy in.

numpy is optional: no simulation, runner or serve path needs it, and
importing it alone costs ~12 MB of peak RSS on every run.  The check
runs in a fresh interpreter so modules other tests imported cannot
mask (or fake) the import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_entry_points_do_not_import_numpy():
    code = (
        "import sys\n"
        "import repro.cli, repro.analysis.runner, repro.serve.daemon\n"
        "assert 'numpy' not in sys.modules, sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'numpy')[:5]\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
