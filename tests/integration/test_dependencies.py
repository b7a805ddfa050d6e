"""The package has no third-party runtime dependency: importing every
public surface in a fresh interpreter loads no numpy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
import repro, repro.driver, repro.tools.cli, repro.serve, repro.fuzz
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""


def test_public_surfaces_import_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
