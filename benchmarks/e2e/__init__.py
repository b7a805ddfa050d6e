"""End-to-end pipeline benchmark: five workloads, speed-normalised
latencies, and a separate layer-attributed traced run.

See ``README.md`` in this directory.  Entry points::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.e2e run --seed N [--workload W] [--trace OUT.jsonl]
    PYTHONPATH=src python -m benchmarks.e2e compare PARENT.json CHANGE.json
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

WORKLOADS = ("diamonds", "sync", "cyclic", "edits", "serve")

#: The checkout the benchmark measures (``benchmarks/e2e/../..``).
ROOT = Path(__file__).resolve().parents[2]
#: Everything a run writes (daemon ready files and logs, traces).
WORKDIR = ROOT / ".bench_e2e"


def child_env() -> dict:
    """Environment for processes the benchmark starts: the checkout's
    ``src`` and root on the path, temporary files in :data:`WORKDIR`."""
    WORKDIR.mkdir(exist_ok=True)
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        TMPDIR=str(WORKDIR),
    )


def require_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit non-zero: a
    copy found anywhere else would measure the wrong program."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as err:
        raise SystemExit(f"benchmark: cannot import repro from {src}: {err}")
    where = Path(repro.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"benchmark: repro imported from {where}, not from {src}")
