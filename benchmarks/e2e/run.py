"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Run from the checkout root.  The workload runs in a fresh subprocess
(:mod:`benchmarks.e2e.workload`); with ``--trace 0`` two more
subprocesses only set up, and ``setup_s`` is the median of the three
set-ups, each rescaled to reference speed by a cold start timed next to
it.  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

with every ``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or
every ``per_layer`` one (``--trace 1``, which also writes the spans to
``.bench_e2e/trace-<workload>-seed<N>.jsonl``).  The lines before it list
the same metrics for a reader, with sample counts.  The exit code is 1
when any op failed or gave a wrong output, 2 when the run could not be
made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

if __name__ == "__main__":  # run as a script: import the package from the checkout
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e import ROOT, WORKDIR, WORKLOADS, calib, child_env

SETUP_RUNS = 3
#: Wall-clock allowance for one whole run (all its subprocesses).
RUN_TIMEOUT_S = 170.0


class RunError(RuntimeError):
    """The workload subprocess failed without producing a result."""


def spec() -> dict:
    """``BENCHMARK.json``: metric names, units, bounds, run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child(args: List[str], deadline: float) -> dict:
    """Run the workload module with ``args``; its JSON result.  On
    timeout the child's whole process group (its daemon included) is
    killed and reaped."""
    cmd = [sys.executable, "-m", "benchmarks.e2e.workload", "--t0", repr(time.monotonic()), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group is already gone
            pass
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: Optional[Path] = None,
                 smoke: bool = False) -> dict:
    """One run: the workload's result, with (untraced) ``setup_s`` the
    median of :data:`SETUP_RUNS` set-ups, each rescaled by the cold
    starts timed next to it (:func:`calib.cold_start_s`): ``cold,
    set-up, cold, set-up, cold, timed run``, the timed run's own set-up
    rescaled by the cold start before it."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed)]
    if smoke:
        base.append("--smoke")
    setups, raw, colds = [], [], []
    if trace is None:
        colds.append(calib.cold_start_s())
        for _ in range(SETUP_RUNS - 1):
            raw.append(_child(base + ["--setup-only"], deadline)["setup_s"])
            colds.append(calib.cold_start_s())
            setups.append(calib.setup_to_ref(raw[-1], (colds[-2] + colds[-1]) / 2))
    extra = ["--seconds", str(seconds)]
    if trace is not None:
        extra += ["--trace", str(trace)]
    result = _child(base + extra, deadline)
    if trace is None:
        raw.append(result["setup_s"])
        setups.append(calib.setup_to_ref(raw[-1], colds[-1]))
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["context"]["raw_setup_ms"] = statistics.median(raw) * 1e3
        result["context"]["cold_start_ms"] = statistics.median(colds) * 1e3
    return result


def contract_metrics(result: dict, traced: bool) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly the metrics ``BENCHMARK.json``
    lists for this kind of run."""
    wanted = spec()["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise RunError(f"run produced no value for {', '.join(missing)}")
    return {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}


def describe(workload: str, result: dict, metrics: Dict[str, dict]) -> List[str]:
    """Human-readable lines: every metric with its unit, sample counts."""
    samples = result.get("samples", {})
    lines = [f"{workload}: {result['passes']} passes, {result['attempted']} ops, "
             f"{result['failed']} failed"]
    for name, m in metrics.items():
        count = samples.get(name.split(".")[0])
        suffix = f"  (n={count})" if count is not None and name.endswith((".p50", ".p95")) else ""
        lines.append(f"  {name:32s} {m['value']:14.6f} {m['unit']}{suffix}")
    lines.extend(f"  context: {name} {value:.6f} ms" for name, value in result["context"].items())
    lines.extend(f"  FAILED {line}" for line in result.get("failures", []))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated from outside: unwind, so the workload's process group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise RunError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        result = run_workload(args.workload, args.seed, args.seconds, trace)
        metrics = contract_metrics(result, bool(args.trace))
    except (RunError, OSError, ValueError, subprocess.SubprocessError) as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2
    print("\n".join(describe(args.workload, result, metrics)))
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
