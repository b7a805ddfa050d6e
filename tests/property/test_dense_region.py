"""Property: the vectorized dense region evaluator agrees exactly —
byte-identical sets — with the scalar scc and stabilized engines, on
generated programs and on every paper figure, with synchronized programs
routed to the scalar fallback."""

import pytest
from hypothesis import given, settings

from repro import build_pfg
from repro.dataflow.dense import DenseConfig
from repro.paper import programs
from repro.reachdefs import solve_parallel, solve_sequential, solve_synch

from .conftest import generated_programs, sequential_programs

SLOTS = ("In", "Out", "ACCKillin", "ACCKillout", "ForkKill", "SynchPass")
ALWAYS = DenseConfig(mode="always")


def _sets(result):
    """Every computed set, keyed by (slot, node name) — byte-identical
    comparison across solver runs on the same graph."""
    out = {}
    for slot in SLOTS:
        attr = {
            "In": "in_sets",
            "Out": "out_sets",
            "ACCKillin": "acc_killin",
            "ACCKillout": "acc_killout",
            "ForkKill": "fork_kill",
            "SynchPass": "synch_pass",
        }[slot]
        values = getattr(result, attr, None)
        if values is None:
            continue
        for node, value in values.items():
            out[(slot, node.name)] = value
    return out


def _solve_for(graph):
    uses_sync = bool(graph.posts_of_event or graph.waits_of_event)
    uses_parallel = bool(graph.forks) or bool(graph.pardos)
    if uses_sync:
        return solve_synch
    if uses_parallel:
        return solve_parallel
    return solve_sequential


@settings(max_examples=25, deadline=None)
@given(prog=sequential_programs())
def test_dense_identical_sequential(prog):
    # The plain §2 formulation: one flow family, levelized Gauss–Seidel.
    graph = build_pfg(prog)
    base = solve_sequential(graph, solver="scc")
    dense = solve_sequential(graph, solver="scc", dense=ALWAYS)
    assert _sets(dense) == _sets(base)


@settings(max_examples=25, deadline=None)
@given(prog=generated_programs(with_sync=False))
def test_dense_identical_parallel(prog):
    # The §5 phase formulation: flow + kill phases, round history, cycle
    # meet — all replayed densely, so even the "+cycle" order tag must
    # match the scalar engine's.
    graph = build_pfg(prog)
    base = solve_parallel(graph, solver="scc")
    stab = solve_parallel(graph, solver="stabilized")
    dense = solve_parallel(graph, solver="scc", dense=ALWAYS)
    assert _sets(dense) == _sets(base)
    assert _sets(dense) == _sets(stab)
    assert dense.stats.order.endswith("+cycle") == base.stats.order.endswith("+cycle")


@settings(max_examples=25, deadline=None)
@given(prog=generated_programs(with_sync=True))
def test_dense_synch_routed_scalar_and_identical(prog):
    # SynchPass has no dense formulation: the profile detector must route
    # every cyclic region of a synchronized system to the scalar fallback
    # — and the results are then trivially identical to scc.
    graph = build_pfg(prog)
    base = solve_synch(graph, solver="scc")
    dense = solve_synch(graph, solver="scc", dense=ALWAYS)
    assert _sets(dense) == _sets(base)
    assert dense.stats.dense_regions == 0
    # The plain scc run doesn't count dispatch (no dense config), so the
    # fallback accounting is visible only on the dense run.
    assert base.stats.scalar_regions == 0


@settings(max_examples=15, deadline=None)
@given(prog=generated_programs(with_sync=False))
def test_dense_auto_mode_identical(prog):
    # Auto mode dispatches per region (most generator regions fall below
    # the thresholds) — dispatch must never change values.
    graph = build_pfg(prog)
    base = solve_parallel(graph, solver="scc")
    auto = solve_parallel(graph, solver="scc", dense=DenseConfig(mode="auto"))
    assert _sets(auto) == _sets(base)


@pytest.mark.parametrize("key", sorted(programs.SOURCES))
def test_dense_identical_on_every_paper_figure(key):
    graph = programs.graph(key)
    solve = _solve_for(graph)
    base = solve(graph, solver="scc")
    stab = solve(graph, solver="stabilized")
    dense = solve(graph, solver="scc", dense=ALWAYS)
    assert _sets(dense) == _sets(base), key
    assert _sets(dense) == _sets(stab), key
    if solve is solve_synch:
        # Synchronized figures must never take the dense path.
        assert dense.stats.dense_regions == 0, key


def test_dense_engages_on_cyclic_parallel_figures():
    # The looped parallel figures (1a/1b) have a cyclic §5 region and no
    # synchronization: forced-dense mode must actually vectorize there —
    # guards against the profile detector silently falling back scalar
    # everywhere, which would make every agreement test above vacuous.
    engaged = {}
    for key in sorted(programs.SOURCES):
        graph = programs.graph(key)
        solve = _solve_for(graph)
        result = solve(graph, solver="scc", dense=ALWAYS)
        engaged[key] = result.stats.dense_regions
    assert engaged["fig1a"] >= 1 and engaged["fig1b"] >= 1, engaged
