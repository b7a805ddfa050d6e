"""Record an observability baseline trajectory for the solver benchmarks.

Runs the ``bench_solver_modes`` and ``bench_scaling`` workloads through
:mod:`repro.obs` (the same tracer the CLI ``--profile`` flag uses) and
writes ``benchmarks/BENCH_obs_baseline.json`` — JSONL records, schema
``repro-obs/1``.  Each workload repeat is one ``bench`` root span with
the solver's nested spans inside, so later perf PRs have a checked-in
trajectory to beat: compare the min ``dur`` over repeats of the spans
with the same ``workload`` attr, and the ``solve.*`` counters for the
algorithmic (time-independent) half of the story.

Run:  PYTHONPATH=src python benchmarks/run_obs_baseline.py [OUT.json]
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

from repro import analyze, build_pfg, obs
from repro.reachdefs import solve_synch
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

#: bench_solver_modes workloads: one entry per (shape, solver).
SOLVER_MODE_SHAPES = {
    "pipeline10": sync_pipeline(10),
    "fig3x4": fig3_repeated(4),
    "mix300": random_mix(seed=21, n_stmts=300),
}
SOLVERS = ("round-robin", "worklist", "stabilized")

#: bench_scaling workloads (middle sizes of each series).
SCALING = {
    "chain200": chain(200),
    "diamonds40": diamond_chain(40),
    "wide8x6": wide_parallel(8, 6),
    "nested6": nested_parallel(6),
    "loopnest3": loop_nest(3),
    "syncpipe6": sync_pipeline(6),
    "fig3x4-analyze": fig3_repeated(4),
    "mix150": random_mix(seed=7, n_stmts=150),
}

#: Spans deeper than this are dropped from the checked-in file — the
#: per-pass detail is reproducible on demand and would bloat the diff.
MAX_DEPTH = 3


def main(out_path: str) -> int:
    with obs.session() as sess:
        for shape_name, prog in sorted(SOLVER_MODE_SHAPES.items()):
            graph = build_pfg(prog)
            for solver in SOLVERS:
                for repeat in range(REPEATS):
                    with sess.tracer.span(
                        "bench",
                        suite="solver_modes",
                        workload=f"{shape_name}/{solver}",
                        repeat=repeat,
                    ):
                        result = solve_synch(graph, solver=solver)
                    assert result.stats.converged, (shape_name, solver)
        for name, prog in sorted(SCALING.items()):
            for repeat in range(REPEATS):
                with sess.tracer.span(
                    "bench", suite="scaling", workload=name, repeat=repeat
                ):
                    result = analyze(prog, cache=False)
                assert result.stats.converged, name

    records = [
        {
            "type": "meta",
            "schema": obs.SCHEMA,
            "source": "benchmarks/run_obs_baseline.py",
            "python": platform.python_version(),
            "repeats": REPEATS,
            "max_depth": MAX_DEPTH,
        }
    ]
    records.extend(
        r for r in obs.span_records(sess.tracer) if r["depth"] <= MAX_DEPTH
    )
    records.extend(obs.metric_records(sess.metrics))
    Path(out_path).write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    )
    n_bench = sum(1 for r in records if r.get("name") == "bench")
    print(f"wrote {len(records)} records ({n_bench} bench spans) to {out_path}")
    return 0


if __name__ == "__main__":
    default = Path(__file__).parent / "BENCH_obs_baseline.json"
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else str(default)))
