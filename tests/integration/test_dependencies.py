"""The package has no third-party runtime dependency: importing every
public surface in a fresh interpreter loads no numpy.  The request
pipeline has one path per request: serving one never loads the
incremental engine.  Batch runs on the serve worker pool without loading
the HTTP daemon."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
import repro, repro.driver, repro.tools.cli, repro.serve.app, repro.fuzz
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""

REQUEST_PROBE = """
import sys
from repro.driver import run_request
from repro.serve.worker import execute_request
SRC = '''
program p
  x = 1
  parallel sections
    section a
      x = 2
    section b
      y = x
  end parallel sections
end program
'''
outcome = run_request(SRC)
assert outcome.status == "ok" and outcome.result.system == "parallel", outcome.status
assert execute_request({"source": SRC})["status"] == "ok"
loaded = [m for m in ("repro.incremental", "difflib") if m in sys.modules]
assert not loaded, loaded
"""

BATCH_PROBE = """
import sys
import repro.batch
assert "repro.serve.supervisor" in sys.modules
assert "repro.serve.app" not in sys.modules
"""


def _run(probe):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_public_surfaces_import_without_numpy():
    _run(PROBE)


def test_requests_never_load_the_incremental_engine():
    _run(REQUEST_PROBE)


def test_batch_import_does_not_load_the_serve_daemon():
    _run(BATCH_PROBE)
