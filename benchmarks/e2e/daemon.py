"""Launcher for the ``repro serve`` daemon the serve workload drives.

One daemon per workload process, started from the checkout's ``src`` on
an ephemeral port (``--ready-file``), with one worker.  Every file it
writes (ready file, stderr log) stays in the benchmark's work directory,
and :meth:`Daemon.close` drains it with SIGTERM and waits for it (and,
through its own shutdown, its worker) to exit.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0


class Daemon:
    def __init__(self, root: Path, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self._ready = ready = workdir / f"serve-{os.getpid()}.ready.json"
        ready.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(workdir))
        self._log_path = workdir / f"serve-{os.getpid()}.log"
        self._log = open(self._log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1",
             "--ready-file", str(ready)],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._wait_ready(ready)
        except BaseException:
            self.close()
            raise

    def _wait_ready(self, ready: Path) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode} on start-up")
            try:
                return int(json.loads(ready.read_text())["port"])
            except (FileNotFoundError, json.JSONDecodeError, KeyError):
                time.sleep(0.01)
        raise RuntimeError(f"repro serve wrote no ready file within {BOOT_TIMEOUT_S:.0f}s")

    def close(self) -> None:
        """Drain and reap the daemon (kill it if the drain hangs); its
        files are removed unless it failed, when the log is kept."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        self._ready.unlink(missing_ok=True)
        if self.proc.returncode == 0:
            self._log_path.unlink(missing_ok=True)
