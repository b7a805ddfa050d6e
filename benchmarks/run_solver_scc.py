"""Record (or check) the SCC-scheduled solver's update-count trajectory.

Runs each workload under every registered solver with the analysis cache
disabled and writes ``benchmarks/BENCH_solver_scc.json``: per
(workload, solver) the deterministic ``SolveStats`` record — update and
pass counts, convergence, order tag — plus a wall-clock minimum over
repeats that is recorded for context but never compared.

``--check`` re-runs the workloads, compares every deterministic field
against the checked-in file, and enforces the perf gate: on the three
key workloads (``chain800``, ``diamonds160``, ``nested12``) the scc
solver must need at most half of round-robin's node updates.  CI runs
this mode; regenerate the file with the bare command after any change
that legitimately moves the counts.

Run:    PYTHONPATH=src python benchmarks/run_solver_scc.py [OUT.json]
Check:  PYTHONPATH=src python benchmarks/run_solver_scc.py --check
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from repro import analyze
from repro.dataflow.framework import FixpointDiverged
from repro.synthetic import (
    chain,
    diamond_chain,
    fig3_repeated,
    loop_nest,
    nested_parallel,
    random_mix,
    sync_pipeline,
    wide_parallel,
)

REPEATS = 3
SOLVERS = ("round-robin", "worklist", "stabilized", "scc")

#: The acceptance gate: scc must at least halve round-robin's updates here.
KEY_WORKLOADS = ("chain800", "diamonds160", "nested12")

WORKLOADS = {
    "chain800": lambda: chain(800),
    "diamonds160": lambda: diamond_chain(160),
    "nested12": lambda: nested_parallel(12),
    "wide8x6": lambda: wide_parallel(8, 6),
    "loopnest3": lambda: loop_nest(3),
    "syncpipe10": lambda: sync_pipeline(10),
    "fig3x4": lambda: fig3_repeated(4),
    "mix300": lambda: random_mix(seed=21, n_stmts=300),
}


def measure() -> dict:
    """Deterministic stats + context-only timing for every cell."""
    out = {}
    for name, make in sorted(WORKLOADS.items()):
        prog = make()
        cells = {}
        for solver in SOLVERS:
            best = None
            record = None
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                try:
                    result = analyze(prog, solver=solver, cache=False)
                except FixpointDiverged:
                    # Honest outcome of the literal synch equations under
                    # chaotic iteration; deterministic, so record it.
                    record = {"diverged": True}
                    break
                elapsed = time.perf_counter() - t0
                best = elapsed if best is None else min(best, elapsed)
                record = result.stats.as_dict()
            if "diverged" not in record:
                record["time_s"] = round(best, 6)
            cells[solver] = record
        out[name] = cells
    return out


def deterministic(cells: dict) -> dict:
    """The comparable half of a measurement: everything but wall-clock."""
    return {
        name: {
            solver: {k: v for k, v in rec.items() if k != "time_s"}
            for solver, rec in solvers.items()
        }
        for name, solvers in cells.items()
    }


def check(path: Path) -> int:
    recorded = json.loads(path.read_text())
    fresh = measure()
    failures = []
    want, got = deterministic(recorded["workloads"]), deterministic(fresh)
    for name in sorted(WORKLOADS):
        for solver in SOLVERS:
            if want.get(name, {}).get(solver) != got[name][solver]:
                failures.append(
                    f"{name}/{solver}: recorded {want.get(name, {}).get(solver)!r}"
                    f" != measured {got[name][solver]!r}"
                )
    for name in KEY_WORKLOADS:
        rr = got[name]["round-robin"]["node_updates"]
        scc = got[name]["scc"]["node_updates"]
        if scc * 2 > rr:
            failures.append(
                f"{name}: perf gate broken — scc {scc} updates vs"
                f" round-robin {rr} (need <= {rr // 2})"
            )
        else:
            print(f"{name}: scc {scc} vs round-robin {rr} updates ({rr / scc:.1f}x)")
    if failures:
        print(f"\nFAIL: {len(failures)} mismatch(es) vs {path}:")
        for f in failures:
            print(f"  - {f}")
        print("\nRegenerate with: PYTHONPATH=src python benchmarks/run_solver_scc.py")
        return 1
    print(f"OK: {path} in sync, perf gate holds on {', '.join(KEY_WORKLOADS)}")
    return 0


def write(path: Path) -> int:
    payload = {
        "meta": {
            "source": "benchmarks/run_solver_scc.py",
            "python": platform.python_version(),
            "repeats": REPEATS,
            "note": "time_s is context only; --check compares the rest",
        },
        "workloads": measure(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    n = sum(len(v) for v in payload["workloads"].values())
    print(f"wrote {n} (workload, solver) records to {path}")
    return 0


def main(argv: list[str]) -> int:
    default = Path(__file__).parent / "BENCH_solver_scc.json"
    if "--check" in argv:
        return check(default)
    return write(Path(argv[0]) if argv else default)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
