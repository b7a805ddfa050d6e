"""Record (or check) the incremental re-analysis perf trajectory.

For each workload the script runs, with the analysis cache disabled:

* ``full``        — a from-scratch ``analyze`` of the *edited* program
  (solver ``scc``, the engine the incremental path reuses);
* ``incremental`` — ``incremental_analyze`` of the same edit against a
  base solve of the original program (base-solve cost excluded: the
  serving scenario already paid it).

The edit is always a one-statement RHS change in the **last** construct,
so the dirty cone is minimal and the reuse counters prove the skips.
``benchmarks/BENCH_incremental.json`` holds the deterministic half —
``SolveStats`` records including ``regions_reused``/``regions_solved``
and the outcome's node-match counts — plus wall-clock context.

``--check`` re-runs everything, compares the deterministic fields, and
enforces three live gates:

* **speedup gate** — on the wide multi-region workloads (``plchain12x12``,
  ``plchain16x12``: many independent cyclic SCCs through the §5 kill
  layer) incremental must be at least 3x faster than from-scratch by
  wall clock, with ``regions_reused > 0`` pinning that the win comes
  from skipped regions, not noise;
* **identity pin** — every cell's incremental In/Out rows must equal the
  from-scratch rows byte-for-byte (the property suite proves this at
  depth; the bench re-asserts it on the exact gate workloads);
* **overhead gate** — the fallback path (``incremental_analyze`` off a
  base that matches nothing useful — here: a structurally disjoint one)
  must cost within 5% of a plain full solve, re-measured A/B with extra
  repeats: the diff/fallback machinery must be effectively free when it
  cannot help.

Run:    PYTHONPATH=src python benchmarks/run_incremental.py [OUT.json]
Check:  PYTHONPATH=src python benchmarks/run_incremental.py --check
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from repro import analyze
from repro.incremental import IncrementalBase, incremental_analyze
from repro.lang import ast
from repro.synthetic import chain, diamond_chain, diamond_loop, par_loop_chain

REPEATS = 3
OVERHEAD_REPEATS = 7

#: Wide multi-region workloads: incremental must win >= 3x wall-clock
#: with regions actually reused.
KEY_SPEEDUP = ("plchain12x12", "plchain16x12")

#: Fallback-cost workloads for the overhead gate.
OVERHEAD = ("diamonds400", "plchain8x10")


def _edit_last(program):
    """One-statement RHS edit in the program's last construct (matching
    shapes produced by the workload factories below)."""
    for stmt in reversed(program.body):
        if isinstance(stmt, ast.Loop):
            inner = stmt.body[0]
            target_if = (
                inner.sections[0].body[0]
                if isinstance(inner, ast.ParallelSections)
                else inner
            )
        elif isinstance(stmt, ast.If):
            target_if = stmt
        else:
            continue
        old = target_if.then_body[0]
        target_if.then_body[0] = ast.Assign(target=old.target, expr=ast.IntLit(99))
        return program
    raise AssertionError(f"no editable construct in {program.name}")


WORKLOADS = {
    "diamonds400": lambda: diamond_chain(400),
    "dloop200": lambda: diamond_loop(200),
    "plchain8x10": lambda: par_loop_chain(8, 10),
    "plchain12x12": lambda: par_loop_chain(12, 12),
    "plchain16x12": lambda: par_loop_chain(16, 12),
}


def _sets(result):
    out = {}
    for n in result.graph.nodes:
        out[(n.name, "In")] = frozenset(d.name for d in result.In(n))
        out[(n.name, "Out")] = frozenset(d.name for d in result.Out(n))
    return out


def _measure_cell(name):
    """One workload: time full vs incremental on the same one-stmt edit."""
    make = WORKLOADS[name]
    base_prog = make()
    base = IncrementalBase.from_result(
        base_prog, analyze(base_prog, solver="scc", cache=False)
    )
    edited = _edit_last(make())

    full_t, full_result = None, None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        full_result = analyze(edited, solver="scc", cache=False)
        elapsed = time.perf_counter() - t0
        full_t = elapsed if full_t is None else min(full_t, elapsed)

    incr_t, outcome = None, None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        outcome = incremental_analyze(base, edited, cache=False)
        elapsed = time.perf_counter() - t0
        incr_t = elapsed if incr_t is None else min(incr_t, elapsed)

    identical = _sets(full_result) == _sets(outcome.result)
    record = {
        "full": dict(full_result.stats.as_dict(), time_s=round(full_t, 6)),
        "incremental": dict(
            outcome.result.stats.as_dict(), time_s=round(incr_t, 6)
        ),
        "nodes_matched": outcome.nodes_matched,
        "nodes_dirty": outcome.nodes_dirty,
        "fallback": outcome.fallback,
        "identical": identical,
    }
    return record


def measure() -> dict:
    return {name: _measure_cell(name) for name in sorted(WORKLOADS)}


def deterministic(cells: dict) -> dict:
    """The comparable half of a measurement: everything but wall-clock."""
    out = {}
    for name, rec in cells.items():
        out[name] = {
            "full": {k: v for k, v in rec["full"].items() if k != "time_s"},
            "incremental": {
                k: v for k, v in rec["incremental"].items() if k != "time_s"
            },
            "nodes_matched": rec["nodes_matched"],
            "nodes_dirty": rec["nodes_dirty"],
            "fallback": rec["fallback"],
            "identical": rec["identical"],
        }
    return out


def _overhead_ab(name):
    """A/B the fallback path against a plain solve on one workload.

    B's base is a structurally disjoint program, so ``incremental_analyze``
    runs its matcher, finds nothing, and falls back internally — the
    worst honest cost of trying reuse."""
    decoy_prog = chain(40)
    decoy = IncrementalBase.from_result(
        decoy_prog, analyze(decoy_prog, solver="scc", cache=False)
    )
    prog = WORKLOADS[name]()
    plain_t = fb_t = None
    # Interleave the A/B pairs so clock drift hits both sides equally.
    for _ in range(OVERHEAD_REPEATS):
        t0 = time.perf_counter()
        analyze(prog, solver="scc", cache=False)
        elapsed = time.perf_counter() - t0
        plain_t = elapsed if plain_t is None else min(plain_t, elapsed)
        t0 = time.perf_counter()
        outcome = incremental_analyze(decoy, prog, solver="scc", cache=False)
        elapsed = time.perf_counter() - t0
        fb_t = elapsed if fb_t is None else min(fb_t, elapsed)
    assert outcome.fallback is not None
    return plain_t, fb_t


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

    # Identity pin: byte-identical rows on every cell, no silent fallback
    # on the shapes built to be matchable.
    for name in sorted(WORKLOADS):
        if not fresh[name]["identical"]:
            failures.append(f"{name}: incremental rows differ from from-scratch")
        if fresh[name]["fallback"] is not None:
            failures.append(
                f"{name}: unexpected fallback {fresh[name]['fallback']!r}"
            )

    # Speedup gate: >= 3x on the wide multi-region shapes, with reuse.
    for name in KEY_SPEEDUP:
        full_t = fresh[name]["full"]["time_s"]
        incr_t = fresh[name]["incremental"]["time_s"]
        reused = fresh[name]["incremental"].get("regions_reused", 0)
        if incr_t * 3 > full_t:
            failures.append(
                f"{name}: speedup gate broken — incremental {incr_t:.3f}s vs"
                f" full {full_t:.3f}s (need >= 3x faster)"
            )
        else:
            print(
                f"{name}: incremental {incr_t:.3f}s vs full {full_t:.3f}s "
                f"({full_t / incr_t:.1f}x, {reused} regions reused)"
            )
        if not reused:
            failures.append(f"{name}: no regions reused — speedup is not real")

    # Overhead gate: the fallback path must cost < 5% over a plain solve.
    for name in OVERHEAD:
        plain_t, fb_t = _overhead_ab(name)
        if fb_t > plain_t * 1.05:
            failures.append(
                f"{name}: overhead gate broken — fallback {fb_t:.4f}s vs"
                f" plain {plain_t:.4f}s (> 5% regression)"
            )
        else:
            print(
                f"{name}: fallback {fb_t:.4f}s vs plain {plain_t:.4f}s "
                f"({(fb_t / plain_t - 1) * 100:+.1f}%)"
            )

    if failures:
        print(f"\nFAIL: {len(failures)} mismatch(es) vs {path}:")
        for f in failures:
            print(f"  - {f}")
        print(
            "\nRegenerate with: PYTHONPATH=src python benchmarks/run_incremental.py"
        )
        return 1
    print(
        f"OK: {path} in sync; speedup gate holds on {', '.join(KEY_SPEEDUP)}, "
        f"overhead gate on {', '.join(OVERHEAD)}"
    )
    return 0


def write(path: Path) -> int:
    payload = {
        "meta": {
            "source": "benchmarks/run_incremental.py",
            "python": platform.python_version(),
            "repeats": REPEATS,
            "note": "time_s is context only; --check compares the rest and "
            "re-measures the live gates",
        },
        "workloads": measure(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['workloads'])} workload records to {path}")
    return 0


def main(argv: list[str]) -> int:
    default = Path(__file__).parent / "BENCH_incremental.json"
    if "--check" in argv:
        return check(default)
    return write(Path(argv[0]) if argv else default)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
