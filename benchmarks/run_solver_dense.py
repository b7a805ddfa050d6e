"""Record (or check) the dense region evaluator's perf trajectory.

Runs each workload under three engine configurations with the analysis
cache disabled and writes ``benchmarks/BENCH_solver_dense.json``:

* ``scc``       — the scalar SCC-scheduled baseline;
* ``scc-dense`` — ``scc`` with dense forced on
  (``DenseConfig(mode="always")``), the matrix-shaped evaluator for every
  eligible cyclic region;
* ``scc-auto``  — ``scc`` with ``DenseConfig(mode="auto")``: production
  dispatch, where the size/width thresholds route small or narrow
  regions to the scalar fallback.

Per (workload, config) the JSON holds the deterministic ``SolveStats``
record — update counts, dense/scalar region dispatch, convergence —
plus a wall-clock minimum recorded for context but never compared.

``--check`` re-runs the workloads, compares every deterministic field
against the checked-in file, and enforces three live gates:

* **dense gate** — on the wide cyclic key workloads (``pdloop12x18``,
  ``pdloop16x24``: one large SCC through the §5 kill layer) the dense
  evaluator must be at least 2x faster than scalar scc by wall clock,
  and must not need more node updates;
* **fallback gate** — on the small/narrow workloads (``nested120``,
  ``dloop400``, ``fig3x16``) auto mode must stay within 5% of scalar
  scc wall clock (re-measured with extra repeats; the thresholds make
  the dense machinery effectively free when it doesn't engage);
* **dispatch pins** — auto mode must actually fall back on the narrow
  loop (``dloop400``, width < 2) and the synchronized program
  (``fig3x16``, SynchPass unsupported densely), and must engage on the
  key workloads.

The chain/diamond/nested rows are the ``run_solver_scc.py`` shapes at
10x size (mostly acyclic — they pin that the dense path never touches
acyclic scheduling).  ``diamonds1600`` dominates the script's runtime.

Run:    PYTHONPATH=src python benchmarks/run_solver_dense.py [OUT.json]
Check:  PYTHONPATH=src python benchmarks/run_solver_dense.py --check
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from repro import analyze
from repro.dataflow.cache import GLOBAL_CACHE
from repro.dataflow.dense import DenseConfig
from repro.synthetic import (
    chain,
    diamond_chain,
    diamond_loop,
    fig3_repeated,
    nested_parallel,
    par_diamond_loop,
)

REPEATS = 2

#: config name → (solver, DenseConfig) handed to ``repro.analyze``.
CONFIGS = {
    "scc": ("scc", None),
    "scc-dense": ("scc", DenseConfig(mode="always")),
    "scc-auto": ("scc", DenseConfig(mode="auto")),
}

#: Wide cyclic workloads: dense must win >= 2x wall-clock and not lose
#: on update counts.
KEY_DENSE = ("pdloop12x18", "pdloop16x24")

#: Small/narrow workloads: auto mode must cost < 5% vs scalar scc.
FALLBACK = ("nested120", "dloop400", "fig3x16")
FALLBACK_REPEATS = 5

WORKLOADS = {
    "chain8000": lambda: chain(8000),
    "diamonds1600": lambda: diamond_chain(1600),
    "nested120": lambda: nested_parallel(120),
    "dloop400": lambda: diamond_loop(400),
    "pdloop12x18": lambda: par_diamond_loop(12, 18),
    "pdloop16x24": lambda: par_diamond_loop(16, 24),
    "fig3x16": lambda: fig3_repeated(16),
}


def _time_config(prog, config: str, repeats: int = REPEATS):
    """(best wall seconds, deterministic stats record) for one cell."""
    solver, dense = CONFIGS[config]
    best = None
    record = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = analyze(prog, solver=solver, dense=dense, cache=False)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
        record = result.stats.as_dict()
    return best, record


def measure() -> dict:
    """Deterministic stats + context-only timing for every cell."""
    out = {}
    for name, make in sorted(WORKLOADS.items()):
        prog = make()
        cells = {}
        for config in CONFIGS:
            best, record = _time_config(prog, config)
            record["time_s"] = round(best, 6)
            cells[config] = record
        out[name] = cells
    return out


def deterministic(cells: dict) -> dict:
    """The comparable half of a measurement: everything but wall-clock."""
    return {
        name: {
            config: {k: v for k, v in rec.items() if k != "time_s"}
            for config, rec in configs.items()
        }
        for name, configs in cells.items()
    }


def check(path: Path) -> int:
    recorded = json.loads(path.read_text())
    fresh = measure()
    failures = []
    want, got = deterministic(recorded["workloads"]), deterministic(fresh)
    for name in sorted(WORKLOADS):
        for config in CONFIGS:
            if want.get(name, {}).get(config) != got[name][config]:
                failures.append(
                    f"{name}/{config}: recorded {want.get(name, {}).get(config)!r}"
                    f" != measured {got[name][config]!r}"
                )

    # Dense gate: wall clock and update counts on the wide cyclic shapes.
    for name in KEY_DENSE:
        scalar_t = fresh[name]["scc"]["time_s"]
        dense_t = fresh[name]["scc-dense"]["time_s"]
        if dense_t * 2 > scalar_t:
            failures.append(
                f"{name}: dense gate broken — scc-dense {dense_t:.3f}s vs"
                f" scc {scalar_t:.3f}s (need >= 2x faster)"
            )
        else:
            print(f"{name}: scc-dense {dense_t:.3f}s vs scc {scalar_t:.3f}s "
                  f"({scalar_t / dense_t:.1f}x)")
        scalar_u = fresh[name]["scc"]["node_updates"]
        dense_u = fresh[name]["scc-dense"]["node_updates"]
        if dense_u > scalar_u:
            failures.append(
                f"{name}: update-count gate broken — scc-dense {dense_u}"
                f" updates vs scc {scalar_u}"
            )
        if not fresh[name]["scc-dense"].get("dense_regions"):
            failures.append(f"{name}: dense evaluator never engaged")

    # Fallback gate: auto mode must be free when it routes to scalar.
    for name in FALLBACK:
        prog = WORKLOADS[name]()
        scalar_t, _ = _time_config(prog, "scc", repeats=FALLBACK_REPEATS)
        auto_t, _ = _time_config(prog, "scc-auto", repeats=FALLBACK_REPEATS)
        if auto_t > scalar_t * 1.05:
            failures.append(
                f"{name}: fallback gate broken — scc-auto {auto_t:.4f}s vs"
                f" scc {scalar_t:.4f}s (> 5% regression)"
            )
        else:
            print(f"{name}: scc-auto {auto_t:.4f}s vs scc {scalar_t:.4f}s "
                  f"({(auto_t / scalar_t - 1) * 100:+.1f}%)")

    # Dispatch pins: thresholds route narrow/synchronized shapes scalar.
    for name in ("dloop400", "fig3x16"):
        rec = fresh[name]["scc-auto"]
        if rec.get("dense_regions", 0) != 0 or rec.get("scalar_regions", 0) < 1:
            failures.append(
                f"{name}: expected auto mode to fall back scalar, got {rec!r}"
            )

    if failures:
        print(f"\nFAIL: {len(failures)} mismatch(es) vs {path}:")
        for f in failures:
            print(f"  - {f}")
        print("\nRegenerate with: PYTHONPATH=src python benchmarks/run_solver_dense.py")
        return 1
    print(f"OK: {path} in sync; dense gate holds on {', '.join(KEY_DENSE)}, "
          f"fallback gate on {', '.join(FALLBACK)}")
    return 0


def write(path: Path) -> int:
    payload = {
        "meta": {
            "source": "benchmarks/run_solver_dense.py",
            "python": platform.python_version(),
            "repeats": REPEATS,
            "note": "time_s is context only; --check compares the rest and "
            "re-measures the live gates",
        },
        "workloads": measure(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    n = sum(len(v) for v in payload["workloads"].values())
    print(f"wrote {n} (workload, config) records to {path}")
    return 0


def main(argv: list[str]) -> int:
    GLOBAL_CACHE.enabled = False  # measure real solves, never cache hits
    default = Path(__file__).parent / "BENCH_solver_dense.json"
    if "--check" in argv:
        return check(default)
    return write(Path(argv[0]) if argv else default)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
