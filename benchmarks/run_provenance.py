"""Record (or check) the provenance engine's cost and fact counts.

Runs the chain / diamond / nested workloads with ``record_provenance``
off and on (stabilized and scc engines, analysis cache disabled) and
writes ``benchmarks/BENCH_provenance.json``: per workload the
deterministic justification-graph shape — total facts, counts by kind
(gen/flow/survive), zero unsupported facts, and the stabilized↔scc
canonical-identity bit — plus wall-clock minima recorded for context but
never compared.

``--check`` re-runs the workloads, compares every deterministic field
against the checked-in file, and enforces two perf gates:

* **on-cost** — solving with provenance on takes at most 2× the
  provenance-off solve (the justification BFS is one linear pass over
  the converged sets, so it must stay in the same ballpark);
* **off-cost** — the hook's only off-path work is one attribute probe
  per solve (``wants_provenance``); measured directly, that probe must
  be under 2% of the cheapest workload's solve time.

CI runs ``--check``; regenerate with the bare command after any change
that legitimately moves the counts.

Run:    PYTHONPATH=src python benchmarks/run_provenance.py [OUT.json]
Check:  PYTHONPATH=src python benchmarks/run_provenance.py --check
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from repro import analyze
from repro.synthetic import chain, diamond_chain, nested_parallel

REPEATS = 3
SOLVERS = ("stabilized", "scc")

#: t_on / t_off per (workload, solver) must stay at or under this.
ON_COST_LIMIT = 2.0
#: The off-path hook probe must stay under this fraction of a solve.
OFF_COST_LIMIT = 0.02

WORKLOADS = {
    "chain400": lambda: chain(400),
    "diamonds80": lambda: diamond_chain(80),
    "nested10": lambda: nested_parallel(10),
}


def _best(fn, repeats: int = REPEATS) -> float:
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def measure() -> dict:
    out = {}
    for name, make in sorted(WORKLOADS.items()):
        prog = make()
        cells = {}
        for solver in SOLVERS:
            t_off = _best(lambda: analyze(prog, solver=solver, cache=False))
            t_on = _best(
                lambda: analyze(
                    prog, solver=solver, cache=False, record_provenance=True
                )
            )
            result = analyze(
                prog, solver=solver, cache=False, record_provenance=True
            )
            prov = result.provenance
            cells[solver] = {
                "system": result.system,
                "facts": len(prov),
                "counts": prov.counts(),
                "unsupported": len(prov.unsupported()),
                "time_off_s": round(t_off, 6),
                "time_on_s": round(t_on, 6),
            }
        stab = analyze(prog, solver="stabilized", cache=False, record_provenance=True)
        scc = analyze(prog, solver="scc", cache=False, record_provenance=True)
        out[name] = {
            "solvers": cells,
            "solver_identity": stab.provenance.canonical() == scc.provenance.canonical(),
        }
    return out


def hook_probe_cost_s() -> float:
    """Per-solve cost of the off-path provenance hook: one
    ``getattr(system, "wants_provenance", False)`` probe."""
    from repro.pfg import build_pfg
    from repro.reachdefs.parallel import ParallelRDSystem

    system = ParallelRDSystem(build_pfg(nested_parallel(3)))
    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        getattr(system, "wants_provenance", False)
    return (time.perf_counter() - t0) / n


def deterministic(cells: dict) -> dict:
    """The comparable half of a measurement: everything but wall-clock."""
    return {
        name: {
            "solver_identity": rec["solver_identity"],
            "solvers": {
                solver: {
                    k: v
                    for k, v in cell.items()
                    if k not in ("time_off_s", "time_on_s")
                }
                for solver, cell in rec["solvers"].items()
            },
        }
        for name, rec in cells.items()
    }


def check(path: Path) -> int:
    recorded = json.loads(path.read_text())
    fresh = measure()
    failures = []
    want, got = deterministic(recorded["workloads"]), deterministic(fresh)
    for name in sorted(WORKLOADS):
        if want.get(name) != got[name]:
            failures.append(
                f"{name}: recorded {want.get(name)!r} != measured {got[name]!r}"
            )
    for name, rec in sorted(fresh.items()):
        if not rec["solver_identity"]:
            failures.append(f"{name}: stabilized and scc justifications differ")
        for solver, cell in rec["solvers"].items():
            if cell["unsupported"]:
                failures.append(
                    f"{name}/{solver}: {cell['unsupported']} unsupported fact(s)"
                )
            ratio = cell["time_on_s"] / cell["time_off_s"]
            if ratio > ON_COST_LIMIT:
                failures.append(
                    f"{name}/{solver}: provenance-on cost gate broken — "
                    f"{cell['time_on_s']:.6f}s is {ratio:.2f}x the off solve "
                    f"{cell['time_off_s']:.6f}s (limit {ON_COST_LIMIT}x)"
                )
            else:
                print(
                    f"{name}/{solver}: on/off {ratio:.2f}x "
                    f"({cell['facts']} facts)"
                )
    probe = hook_probe_cost_s()
    cheapest = min(
        cell["time_off_s"] for rec in fresh.values() for cell in rec["solvers"].values()
    )
    frac = probe / cheapest
    if frac > OFF_COST_LIMIT:
        failures.append(
            f"off-path hook probe {probe * 1e9:.0f}ns is {frac:.2%} of the "
            f"cheapest solve ({cheapest:.6f}s); limit {OFF_COST_LIMIT:.0%}"
        )
    else:
        print(
            f"off-path probe: {probe * 1e9:.0f}ns/solve = {frac:.4%} of the "
            f"cheapest solve (limit {OFF_COST_LIMIT:.0%})"
        )
    if failures:
        print(f"\nFAIL: {len(failures)} problem(s) vs {path}:")
        for f in failures:
            print(f"  - {f}")
        print("\nRegenerate with: PYTHONPATH=src python benchmarks/run_provenance.py")
        return 1
    print(f"OK: {path} in sync; provenance cost gates hold")
    return 0


def write(path: Path) -> int:
    payload = {
        "meta": {
            "source": "benchmarks/run_provenance.py",
            "python": platform.python_version(),
            "repeats": REPEATS,
            "note": "time_*_s are context only; --check compares the rest",
        },
        "workloads": measure(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    n = sum(len(v["solvers"]) for v in payload["workloads"].values())
    print(f"wrote {n} (workload, solver) records to {path}")
    return 0


def main(argv: list[str]) -> int:
    default = Path(__file__).parent / "BENCH_provenance.json"
    if "--check" in argv:
        return check(default)
    return write(Path(argv[0]) if argv else default)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
