"""Fault injection: order-invariance under chaos, corruption detection."""

import pytest

from repro import analyze, parse_program
from repro.dataflow.sched import solve_scc
from repro.dataflow.solver import make_order, run_solver, solve_round_robin, solve_stabilized
from repro.interp import RandomScheduler, run_program
from repro.interp.trace import check_soundness
from repro.paper import programs
from repro.pfg import build_pfg
from repro.reachdefs import (
    ParallelRDSystem,
    SynchRDSystem,
    equation_family,
    resolve_preserved,
    solve_parallel,
    solve_synch,
)
from repro.reachdefs.conservative import ConservativeRDSystem
from repro.reachdefs.sequential import SequentialRDSystem
from repro.robust import (
    ChaosPlan,
    ChaosSystem,
    chaos_schedulers,
    corrupt_result,
    shuffled_orders,
    verify_result,
)
from repro.synthetic import random_mix

SEEDS = range(7)  # acceptance asks for ≥5; run a couple extra

SEQ = """program seq
  (1) x = 1
  (2) if x then
    (3) x = 2
  else
    (4) y = x
  endif
  (5) z = x + y
end program
"""

SYNC = """program sync
  event ready
  (1) x = 1
  (2) parallel sections
    (3) section producer
      (3) data = x + 1
      (3) post(ready)
    (4) section consumer
      (4) wait(ready)
      (4) y = data
  (5) end parallel sections
  (5) z = y
end program
"""


def _in_sets_by_name(result):
    return {n.name: result.in_sets[n] for n in result.graph.nodes}


# -- fixpoint order-invariance under shuffled sweep orders ----------------


@pytest.mark.parametrize("key", ["fig6", "fig9", "fig3c"])
def test_fixpoint_is_order_invariant_across_seeds(key):
    graph = programs.graph(key)
    solve = solve_synch if (graph.posts_of_event or graph.waits_of_event) else solve_parallel
    reference = _in_sets_by_name(solve(graph))
    for seed in SEEDS:
        shuffled = _in_sets_by_name(solve(graph, order=f"random:{seed}"))
        assert shuffled == reference, f"seed {seed} changed the fixpoint"


def test_shuffled_orders_are_permutations_and_seeded():
    graph = programs.graph("fig9")
    base = {n.name for n in graph.nodes}
    orders = dict(shuffled_orders(graph, SEEDS))
    assert set(orders) == set(SEEDS)
    for order in orders.values():
        assert {n.name for n in order} == base
    # Determinism: the same seed always yields the same order.
    again = dict(shuffled_orders(graph, SEEDS))
    assert [n.name for n in orders[3]] == [n.name for n in again[3]]


# -- transient faults (drops, duplicates) never corrupt the fixpoint ------


@pytest.mark.parametrize("seed", SEEDS)
def test_dropped_and_duplicated_updates_reach_same_fixpoint(seed):
    graph = build_pfg(parse_program(SEQ))
    clean = SequentialRDSystem(graph)
    solve_round_robin(clean, make_order(graph, "document"))

    chaotic = ChaosSystem(
        SequentialRDSystem(graph),
        ChaosPlan(seed=seed, drop_rate=0.4, duplicate_rate=0.4),
    )
    stats = solve_round_robin(chaotic, make_order(graph, "document"))
    assert stats.converged
    assert chaotic.dropped > 0 or chaotic.duplicated > 0
    assert _in_sets_by_name(chaotic.to_result(stats)) == _in_sets_by_name(
        clean.to_result(stats)
    )


ROW_FIELDS = ("in_sets", "out_sets", "acc_killin", "acc_killout", "fork_kill", "synch_pass")


@pytest.mark.parametrize("key", ["fig3", "fig6", "mix0"])
@pytest.mark.parametrize("seed", SEEDS)
def test_stabilized_retries_dropped_updates(key, seed):
    # The sparse phases evaluate only dirty nodes; a node whose update
    # claimed a change stays dirty one more sweep, so a dropped update is
    # retried and the clean rows are still reached.
    graph = build_pfg(random_mix(0, 40)) if key == "mix0" else programs.graph(key)

    def system():
        if equation_family(graph) == "synch":
            return SynchRDSystem(graph, preserved=resolve_preserved(graph))
        return ParallelRDSystem(graph)

    clean = system()
    clean_result = clean.to_result(solve_stabilized(clean, make_order(graph, "document")))
    chaotic = ChaosSystem(system(), ChaosPlan(seed=seed, drop_rate=0.4, duplicate_rate=0.4))
    stats = solve_stabilized(chaotic, make_order(graph, "document"))
    assert stats.converged
    assert chaotic.dropped > 0
    result = chaotic.to_result(stats)
    for name in ROW_FIELDS:
        assert getattr(result, name) == getattr(clean_result, name), name


def test_drop_bound_is_honoured():
    graph = build_pfg(parse_program(SEQ))
    chaotic = ChaosSystem(
        SequentialRDSystem(graph), ChaosPlan(seed=0, drop_rate=1.0, max_drops=3)
    )
    stats = solve_round_robin(chaotic, make_order(graph, "document"))
    # Past the bound the wrapper is honest, so the solve still converges
    # to the true fixpoint.
    assert stats.converged
    assert chaotic.dropped == 3


@pytest.mark.parametrize(
    "system_class, source",
    [(SequentialRDSystem, SEQ), (ConservativeRDSystem, SYNC)],
    ids=["sequential", "conservative"],
)
def test_systems_without_phase_updates_wrap_under_the_default_solver(system_class, source):
    # Neither system has the stabilized flow/kill protocol, so the
    # default solver falls back to round-robin; the wrapper must not
    # seem to offer the protocol either.
    graph = build_pfg(parse_program(source))
    clean = system_class(graph)
    clean_stats = run_solver(clean, graph)
    chaotic = ChaosSystem(system_class(graph), ChaosPlan())
    assert not hasattr(chaotic, "update_flow") and not hasattr(chaotic, "update_kill")
    stats = run_solver(chaotic, graph)
    assert stats.converged
    assert _in_sets_by_name(chaotic.to_result(stats)) == _in_sets_by_name(
        clean.to_result(clean_stats)
    )


# -- persistent suppression IS corruption, and the oracle catches it ------


def test_suppressed_node_produces_detectable_corruption():
    """Suppressing the equations of the block that consumes ``x``/``y``
    leaves its In set empty — every schedule then observes definitions
    the static sets cannot explain.  Detection is deterministic, not a
    lucky schedule."""
    prog = parse_program(SEQ)
    graph = build_pfg(prog)
    chaotic = ChaosSystem(SequentialRDSystem(graph), ChaosPlan(suppress=frozenset({"5"})))
    stats = solve_round_robin(chaotic, make_order(graph, "document"))
    corrupted = chaotic.to_result(stats)
    assert chaotic.suppressed_calls > 0
    assert corrupted.in_sets[graph.node("5")] == frozenset()

    violations, _ = verify_result(corrupted, prog, seeds=SEEDS)
    flagged_seeds = {seed for seed, _ in violations}
    assert flagged_seeds == set(SEEDS), "corruption must be caught on every schedule"


# -- chaos through the SCC scheduler --------------------------------------


@pytest.mark.parametrize("key", ["fig6", "fig9", "fig3c"])
def test_scc_fixpoint_is_order_invariant_across_seeds(key):
    # The order argument only sets within-region priority for the scc
    # solver, so shuffled seeds cannot move the fixpoint.
    graph = programs.graph(key)
    solve = solve_synch if (graph.posts_of_event or graph.waits_of_event) else solve_parallel
    reference = _in_sets_by_name(solve(graph, solver="scc"))
    for seed in SEEDS:
        shuffled = _in_sets_by_name(solve(graph, solver="scc", order=f"random:{seed}"))
        assert shuffled == reference, f"seed {seed} changed the fixpoint"


@pytest.mark.parametrize("seed", SEEDS)
def test_scc_duplicated_updates_reach_same_fixpoint(seed):
    # Duplicate faults re-evaluate idempotent equations; the schedule's
    # exactly-once accounting tolerates them.  (Drop faults do NOT compose
    # with scc: a dropped singleton evaluation is never retried — see the
    # caveat in repro/dataflow/sched.py.)
    graph = build_pfg(parse_program(SEQ))
    clean = SequentialRDSystem(graph)
    clean_stats = solve_scc(clean)

    chaotic = ChaosSystem(
        SequentialRDSystem(graph), ChaosPlan(seed=seed, duplicate_rate=1.0)
    )
    stats = solve_scc(chaotic)
    assert stats.converged
    assert chaotic.duplicated > 0
    assert _in_sets_by_name(chaotic.to_result(stats)) == _in_sets_by_name(
        clean.to_result(clean_stats)
    )


def test_scc_suppressed_node_produces_detectable_corruption():
    # Persistent suppression corrupts the scc solution exactly as it does
    # the sweep solvers', and the runtime oracle still catches it.
    prog = parse_program(SEQ)
    graph = build_pfg(prog)
    chaotic = ChaosSystem(SequentialRDSystem(graph), ChaosPlan(suppress=frozenset({"5"})))
    stats = solve_scc(chaotic)
    corrupted = chaotic.to_result(stats)
    assert chaotic.suppressed_calls > 0
    assert corrupted.in_sets[graph.node("5")] == frozenset()

    violations, _ = verify_result(corrupted, prog, seeds=SEEDS)
    flagged_seeds = {seed for seed, _ in violations}
    assert flagged_seeds == set(SEEDS), "corruption must be caught on every schedule"


# -- post-hoc tampering (corrupt_result) ----------------------------------


@pytest.mark.parametrize("source", [SEQ, SYNC])
def test_corrupt_result_is_always_detected(source):
    prog = parse_program(source)
    result = analyze(prog)
    run = run_program(prog, RandomScheduler(seed=0, max_loop_iters=2), graph=result.graph)
    assert check_soundness(result, run) == []

    tampered, injected = corrupt_result(result, run, seed=1)
    violations = check_soundness(tampered, run)
    assert violations, f"injected corruption not detected: {injected.format()}"
    assert any(v.observation.definition.name == injected.definition for v in violations)
    # The original result object is untouched.
    assert check_soundness(result, run) == []


def test_corrupt_result_refuses_when_nothing_observed():
    prog = parse_program("program empty\n  (1) x = 1\nend program\n")
    result = analyze(prog)
    run = run_program(prog, RandomScheduler(seed=0), graph=result.graph)
    with pytest.raises(ValueError):
        corrupt_result(result, run)


# -- interpreter chaos helpers --------------------------------------------


def test_chaos_schedulers_are_seeded_spread():
    scheds = chaos_schedulers(SEEDS, max_loop_iters=4)
    assert len(scheds) == len(list(SEEDS))
    assert all(s.max_loop_iters == 4 for s in scheds)
    # Distinct seeds really drive distinct interleavings somewhere (the
    # SYNC program's post/wait forces one order, so use free sections).
    prog = parse_program(
        "program par\n"
        "  (1) x = 1\n"
        "  (2) parallel sections\n"
        "    (3) section a\n"
        "      (3) x = 2\n"
        "      (3) u = 3\n"
        "    (4) section b\n"
        "      (4) y = x\n"
        "      (4) v = 4\n"
        "  (5) end parallel sections\n"
        "end program\n"
    )
    traces = {tuple(run_program(prog, s).node_trace) for s in chaos_schedulers(SEEDS)}
    assert len(traces) > 1
