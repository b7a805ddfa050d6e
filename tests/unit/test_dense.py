"""Unit coverage for the dense region evaluator: config validation,
profile detection, bulk packing, threshold dispatch, budget charging and
wavefront scheduling."""

import pytest

from repro import analyze, build_pfg
from repro.dataflow.bitset import BulkView, make_backend
from repro.dataflow.budget import BudgetExceeded, ResourceBudget
from repro.dataflow import dense as dense_module
from repro.dataflow.dense import DenseConfig, dense_profile
from repro.dataflow.framework import SolveStats
from repro.ir.defs import DefTable
from repro.lang import ast
from repro.reachdefs import solve_parallel, solve_sequential, solve_synch
from repro.reachdefs.parallel import ParallelRDSystem
from repro.reachdefs.preserved import resolve_preserved
from repro.reachdefs.sequential import SequentialRDSystem
from repro.reachdefs.synch import SynchRDSystem
from repro.synthetic import diamond_loop, par_diamond_loop


ALWAYS = DenseConfig(mode="always")


def _sets(result):
    out = {}
    for attr in ("in_sets", "out_sets", "acc_killin", "acc_killout", "fork_kill"):
        values = getattr(result, attr, None)
        if values is None:
            continue
        for node, value in values.items():
            out[(attr, node.name)] = value
    return out


# -- DenseConfig -----------------------------------------------------------


def test_config_validates_mode_and_workers():
    for mode in ("sometimes", "never"):
        with pytest.raises(ValueError, match="unknown dense mode"):
            DenseConfig(mode=mode)
    with pytest.raises(ValueError, match="workers"):
        DenseConfig(workers=0)


def test_config_key_excludes_workers():
    # Workers change wall-clock, never values: two configs differing only
    # in workers must share a cache identity.
    assert DenseConfig(workers=1).key() == DenseConfig(workers=4).key()
    assert DenseConfig(mode="auto").key() != DenseConfig(mode="always").key()


# -- profile detection -----------------------------------------------------


def test_profile_detection_per_system():
    graph = build_pfg(par_diamond_loop(2, 2))
    assert dense_profile(ParallelRDSystem(graph)) == "phase"
    assert dense_profile(SequentialRDSystem(graph)) == "plain"
    pres = resolve_preserved(graph, mode="none")
    # SynchPass has no dense formulation → scalar fallback.
    assert dense_profile(SynchRDSystem(graph, preserved=pres)) is None


# -- BulkView --------------------------------------------------------------


@pytest.mark.parametrize("backend", ["set", "bitset"])
def test_bulk_view_roundtrip(backend):
    table = DefTable()
    for i in range(130):  # 3 words: cross-word bits
        table.add(f"v{i % 7}", str(i))
    universe = list(table)
    ops = make_backend(backend, universe)
    view = BulkView(ops)
    values = [
        ops.from_defs([]),
        ops.from_defs([universe[0], universe[63], universe[64], universe[129]]),
        ops.from_defs(universe),
        ops.from_defs([universe[1]]),
    ]
    matrix = view.pack(values)
    assert matrix.shape == (4, view.n_words)
    for row, value in enumerate(values):
        assert ops.to_frozenset(view.unpack_row(matrix, row)) == ops.to_frozenset(value)
    assert view.pack([]).shape == (0, view.n_words)
    assert view.zeros(2).shape == (2, view.n_words)


# -- stats surface ---------------------------------------------------------


def test_stats_dict_includes_dense_fields_only_when_nonzero():
    # Old BENCH records predate these fields: they only appear when set.
    plain = SolveStats(order="scc", converged=True, sweepless=True)
    assert "dense_regions" not in plain.as_dict()
    dense = SolveStats(order="scc", converged=True, sweepless=True, dense_regions=2)
    assert dense.as_dict()["dense_regions"] == 2
    assert dense.as_dict()["scalar_regions"] == 0


# -- dispatch --------------------------------------------------------------


def test_always_mode_engages_and_matches_scalar():
    graph = build_pfg(par_diamond_loop(4, 3))
    base = solve_parallel(graph, solver="scc")
    dense = solve_parallel(graph, solver="scc", dense=ALWAYS)
    assert dense.stats.dense_regions >= 1
    assert _sets(dense) == _sets(base)


def test_auto_mode_falls_back_below_thresholds(monkeypatch):
    # A cyclic region smaller than MIN_NODES must be counted as a scalar
    # fallback, and still produce identical sets.
    monkeypatch.setattr(dense_module, "MIN_NODES", 10_000)
    graph = build_pfg(par_diamond_loop(2, 2))
    base = solve_parallel(graph, solver="scc")
    auto = solve_parallel(graph, solver="scc", dense=DenseConfig(mode="auto"))
    assert auto.stats.dense_regions == 0
    assert auto.stats.scalar_regions >= 1
    assert _sets(auto) == _sets(base)


def test_min_width_routes_narrow_regions_scalar(monkeypatch):
    # A loop-wrapped diamond chain has width ~1.5: the auto width floor
    # must refuse it even when the node-count floors pass.
    monkeypatch.setattr(dense_module, "MIN_NODES", 1)
    monkeypatch.setattr(dense_module, "MIN_CELLS", 1)
    assert dense_module.MIN_WIDTH == 2.0
    graph = build_pfg(diamond_loop(40))
    result = solve_sequential(graph, solver="scc", dense=DenseConfig(mode="auto"))
    assert result.stats.dense_regions == 0
    assert result.stats.scalar_regions >= 1


def test_no_dense_config_counts_nothing():
    graph = build_pfg(par_diamond_loop(2, 2))
    result = solve_parallel(graph, solver="scc", dense=None)
    assert result.stats.dense_regions == 0
    assert result.stats.scalar_regions == 0


def test_synch_system_always_scalar():
    src_prog = par_diamond_loop(2, 2)
    graph = build_pfg(src_prog)
    base = solve_synch(graph, solver="scc")
    dense = solve_synch(graph, solver="scc", dense=ALWAYS)
    assert dense.stats.dense_regions == 0
    assert _sets(dense) == _sets(base)


# -- budget ---------------------------------------------------------------


def test_dense_solve_charges_budget():
    graph = build_pfg(par_diamond_loop(4, 4))
    budget = ResourceBudget(max_passes=100_000)
    result = solve_parallel(graph, solver="scc", dense=ALWAYS, budget=budget)
    assert result.stats.dense_regions >= 1
    assert budget.passes > 0 and budget.updates > 0


def test_dense_solve_trips_budget():
    graph = build_pfg(par_diamond_loop(4, 4))
    with pytest.raises(BudgetExceeded):
        solve_parallel(
            graph, solver="scc", dense=ALWAYS, budget=ResourceBudget(max_passes=1)
        )


def test_charge_region_accumulates():
    budget = ResourceBudget(max_passes=10, max_updates=100)
    budget.charge_region(sweeps=4, updates=40)
    assert (budget.passes, budget.updates) == (4, 40)
    budget.charge_region(sweeps=7, updates=10)
    assert budget.exceeded() is not None


# -- wavefront scheduling --------------------------------------------------


def _multi_region_program(k: int, m: int) -> ast.Program:
    """k parallel sections each holding its own loop of m diamonds: k
    independent cyclic regions at the same condensation depth."""
    sections = []
    for i in range(k):
        loop_body = []
        for j in range(m):
            loop_body.append(
                ast.If(
                    cond=ast.Var("c"),
                    then_body=[ast.Assign(target=f"a{i}_{j}", expr=ast.Var(f"x{i}"))],
                    else_body=[ast.Assign(target=f"x{i}", expr=ast.Var(f"a{i}_{j}"))],
                )
            )
        sections.append(ast.Section(name=f"S{i}", body=[ast.Loop(body=loop_body)]))
    body = [ast.Assign(target="c", expr=ast.IntLit(0))]
    body += [ast.Assign(target=f"x{i}", expr=ast.IntLit(0)) for i in range(k)]
    body.append(ast.ParallelSections(sections=sections))
    return ast.Program(name=f"mr{k}x{m}", events=[], body=body)


def test_wavefront_pool_identical_to_serial():
    from repro import obs

    graph = build_pfg(_multi_region_program(3, 12))
    base = solve_parallel(graph, solver="scc")
    with obs.session() as sess:
        pooled = solve_parallel(
            graph,
            solver="scc",
            dense=DenseConfig(mode="always", workers=2),
        )
    assert _sets(pooled) == _sets(base)
    assert pooled.stats.dense_regions == 3
    counters = {k: c.value for k, c in sess.metrics.counters.items()}
    assert counters.get("solve.dense.waves", 0) >= 1
    assert counters.get("solve.dense.pooled_regions", 0) == 3


def test_wavefront_pool_charges_budget_at_barrier():
    graph = build_pfg(_multi_region_program(3, 12))
    budget = ResourceBudget(max_updates=10_000_000)
    pooled = solve_parallel(
        graph,
        solver="scc",
        dense=DenseConfig(mode="always", workers=2),
        budget=budget,
    )
    assert budget.updates >= pooled.stats.node_updates


# -- end-to-end ------------------------------------------------------------


def test_analyze_scc_dense_end_to_end():
    result = analyze(par_diamond_loop(3, 3), solver="scc", dense=ALWAYS, cache=False)
    assert result.stats.converged
    assert result.stats.dense_regions >= 1
    assert result.stats.as_dict()["order"] == "scc/document"


def test_analyze_cache_key_discriminates_dense_thresholds():
    # Dense dispatch changes counts in result.stats (never the sets) —
    # the cache must not serve one config's stats for another.
    prog = par_diamond_loop(3, 3)
    a = analyze(prog, solver="scc", dense=DenseConfig(mode="always"))
    b = analyze(prog, solver="scc", dense=None)
    assert a.stats.dense_regions >= 1
    assert b.stats.dense_regions == 0
    # Same key → same object on a warm call.
    assert analyze(prog, solver="scc", dense=DenseConfig(mode="always")) is a
