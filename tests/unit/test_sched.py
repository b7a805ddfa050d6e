"""Unit tests for the sparse SCC-scheduled solver (repro.dataflow.sched)."""

import pytest

from repro import analyze, obs, parse_program
from repro.dataflow.budget import BudgetExceeded, ResourceBudget
from repro.dataflow.framework import EquationSystem, SolveStats
from repro.dataflow.sched import build_schedule, get_schedule, solve_scc
from repro.dataflow.solver import SOLVER_NAMES, run_solver, solve_round_robin
from repro.paper import programs
from repro.pfg import build_pfg
from repro.reachdefs import solve_parallel, solve_sequential, solve_synch
from repro.reachdefs.parallel import ParallelRDSystem
from repro.reachdefs.synch import SynchRDSystem
from repro.reachdefs.preserved import resolve_preserved
from repro.synthetic import chain, diamond_chain, nested_parallel, par_diamond_loop


class ChainReach(EquationSystem):
    """Acyclic chain 0 -> 1 -> ... -> n-1 (same toy as test_solver.py)."""

    def __init__(self, n):
        self.n = n
        self.vals = {}

    def nodes(self):
        return list(range(self.n))

    def initialize(self):
        self.vals = {i: frozenset() for i in range(self.n)}

    def update(self, i):
        new = frozenset({i}) | (self.vals[i - 1] if i > 0 else frozenset())
        changed = new != self.vals[i]
        self.vals[i] = new
        return changed

    def dependents(self, i):
        return [i + 1] if i + 1 < self.n else []

    def snapshot(self):
        return dict(self.vals)


class RingReach(ChainReach):
    """Chain whose last node feeds back to 0: one big cyclic SCC."""

    def update(self, i):
        prev = self.vals[(i - 1) % self.n]
        new = frozenset({i}) | prev
        changed = new != self.vals[i]
        self.vals[i] = new
        return changed

    def dependents(self, i):
        return [(i + 1) % self.n]


# -- schedule construction -------------------------------------------------


def test_schedule_acyclic_chain_all_singletons():
    sched = build_schedule(ChainReach(10))
    assert len(sched.regions) == 10
    assert all(not r.cyclic for r in sched.regions)
    assert sched.n_cyclic == 0
    # Topological: each region's node precedes its dependent's region.
    assert [r.nodes for r in sched.regions] == [[i] for i in range(10)]


def test_schedule_ring_is_one_cyclic_region():
    sched = build_schedule(RingReach(6))
    assert len(sched.regions) == 1
    assert sched.regions[0].cyclic
    assert sorted(sched.regions[0].nodes) == list(range(6))


def test_schedule_self_loop_is_cyclic():
    class SelfLoop(ChainReach):
        def dependents(self, i):
            return [i]  # every node reads itself

    sched = build_schedule(SelfLoop(3))
    assert len(sched.regions) == 3
    assert all(r.cyclic for r in sched.regions)


def test_schedule_topological_order_on_paper_graph(fig3_graph):
    pres = resolve_preserved(fig3_graph, mode="approx")
    system = SynchRDSystem(fig3_graph, preserved=pres)
    sched = build_schedule(system)
    # Every cross-region dependence edge points forward in region order.
    for n in sched.nodes:
        for m in sched.dependents[n]:
            if sched.region_of[n] != sched.region_of[m]:
                assert sched.region_of[n] < sched.region_of[m]


def test_schedule_deterministic_and_order_independent(fig6_graph):
    a = build_schedule(ParallelRDSystem(fig6_graph))
    b = build_schedule(ParallelRDSystem(fig6_graph))
    assert [[n.name for n in r.nodes] for r in a.regions] == [
        [n.name for n in r.nodes] for r in b.regions
    ]


def test_get_schedule_cached_on_system_instance():
    system = ChainReach(5)
    with obs.session() as sess:
        first = get_schedule(system)
        second = get_schedule(system)
    assert second is first
    counters = sess.metrics.as_dict()["counters"]
    assert counters["solve.scc.schedule_builds"] == 1
    assert counters["solve.scc.schedule_cache_hits"] == 1
    # ...and construction ran under its own span.
    assert sess.tracer.find("schedule-build") is not None


# -- solving ---------------------------------------------------------------


def test_scc_exactly_once_on_acyclic_chain():
    system = solve_via_scc = ChainReach(50)
    stats = solve_scc(solve_via_scc)
    assert stats.converged
    assert stats.sweepless
    assert stats.node_updates == 50  # one evaluation per node, no sweeps
    assert system.vals[49] == frozenset(range(50))


def test_scc_matches_round_robin_on_ring():
    rr = RingReach(8)
    solve_round_robin(rr, order=list(range(8)))
    scc = RingReach(8)
    stats = solve_scc(scc)
    assert stats.converged
    assert scc.vals == rr.vals


def test_scc_verify_mode_passes_on_correct_dependents():
    system = ChainReach(10)
    stats = solve_scc(system, verify=True)
    assert stats.converged


def test_scc_verify_mode_catches_underapproximated_dependents():
    class LyingChain(ChainReach):
        def dependents(self, i):
            return []  # claims nothing reads anything

    with pytest.raises(RuntimeError, match="under-approximates"):
        solve_scc(LyingChain(10), verify=True)


def test_scc_registered_in_solvers():
    assert "scc" in SOLVER_NAMES
    graph = programs.graph("fig6")
    system = ParallelRDSystem(graph)
    assert run_solver(system, graph, solver="scc").order == "scc/document"


def test_scc_budget_charged_and_enforced():
    # The ring is one cyclic region; a tiny update cap trips inside it.
    budget = ResourceBudget(max_updates=3)
    with pytest.raises(BudgetExceeded):
        solve_scc(RingReach(8), budget=budget)


def test_scc_budget_pass_cap_spares_acyclic_graphs():
    # Singleton regions charge updates, not passes — an acyclic solve
    # runs under any pass cap.
    budget = ResourceBudget(max_passes=1)
    stats = solve_scc(ChainReach(30), budget=budget)
    assert stats.converged


# -- fixpoint equality on the paper's systems ------------------------------


@pytest.mark.parametrize("key", sorted(programs.SOURCES))
def test_scc_fixpoints_match_stabilized_on_paper_figures(key):
    graph = programs.graph(key)
    uses_sync = bool(graph.posts_of_event or graph.waits_of_event)
    uses_parallel = bool(graph.forks) or bool(graph.pardos)
    if uses_sync:
        base = solve_synch(graph, solver="stabilized")
        fast = solve_synch(graph, solver="scc")
    elif uses_parallel:
        base = solve_parallel(graph, solver="stabilized")
        fast = solve_parallel(graph, solver="scc")
    else:
        base = solve_sequential(graph, solver="round-robin")
        fast = solve_sequential(graph, solver="scc")
    for n in graph.nodes:
        assert fast.in_sets[n] == base.in_sets[n], (key, n.name)
        assert fast.out_sets[n] == base.out_sets[n], (key, n.name)
    assert fast.stats.converged


@pytest.mark.parametrize(
    "make,expect_ratio",
    [(lambda: chain(200), 2.0), (lambda: diamond_chain(40), 2.0), (lambda: nested_parallel(6), 2.0)],
)
def test_scc_at_least_halves_round_robin_updates(make, expect_ratio):
    prog = make()
    rr = analyze(prog, solver="round-robin", cache=False)
    scc = analyze(prog, solver="scc", cache=False)
    assert rr.stats.node_updates >= expect_ratio * scc.stats.node_updates
    for n in rr.graph.nodes:
        assert scc.in_sets[scc.graph.node(n.name)] == rr.in_sets[n]


def test_scc_order_argument_does_not_change_fixpoint(fig3_graph):
    base = solve_synch(fig3_graph, solver="scc", order="document")
    for order in ("rpo", "reverse-document", "random:3"):
        other = solve_synch(fig3_graph, solver="scc", order=order)
        for n in fig3_graph.nodes:
            assert other.in_sets[n] == base.in_sets[n], (order, n.name)
            assert other.out_sets[n] == base.out_sets[n], (order, n.name)


def test_scc_snapshot_passes_rejected():
    graph = programs.graph("fig6")
    with pytest.raises(ValueError, match="no global sweeps"):
        solve_parallel(graph, solver="scc", snapshot_passes=True)


def test_scc_through_analyze_and_stats_render():
    prog = parse_program(programs.SOURCES["fig6"])
    result = analyze(prog, solver="scc", cache=False)
    assert result.stats.converged
    assert result.stats.sweepless
    d = result.stats.as_dict()
    assert "passes" not in d
    assert d["order"].startswith("scc/")


def test_scc_stats_record_on_a_cyclic_program():
    # A from-scratch scc solve through cyclic regions reports exactly the
    # sweepless fields: no per-region dispatch or reuse counts.
    result = solve_parallel(build_pfg(par_diamond_loop(4, 3)), solver="scc")
    assert set(result.stats.as_dict()) == {
        "order", "node_updates", "changed_updates", "converged",
    }


def test_stats_dict_includes_region_fields_only_when_nonzero():
    # Old BENCH records predate the incremental region counts: they only
    # appear once the re-analysis engine has set them.
    plain = SolveStats(order="scc", converged=True, sweepless=True)
    assert "regions_reused" not in plain.as_dict()
    assert "regions_solved" not in plain.as_dict()
    reused = SolveStats(order="scc", converged=True, sweepless=True, regions_reused=2)
    assert reused.as_dict()["regions_reused"] == 2
    assert reused.as_dict()["regions_solved"] == 0


class BrokenRegionSnapshot(ParallelRDSystem):
    """A system whose restricted snapshot fails with a genuine TypeError."""

    def snapshot(self, nodes=None):
        if nodes is not None:
            raise TypeError("bug inside snapshot(nodes=...)")
        return super().snapshot()


def test_region_snapshot_type_error_propagates():
    # A TypeError raised inside the region check is a bug, not a missing
    # ``nodes=`` parameter: it must surface instead of silently falling
    # back to a full-graph decode every round.
    system = BrokenRegionSnapshot(build_pfg(par_diamond_loop(2, 2)))
    with pytest.raises(TypeError, match="bug inside snapshot"):
        solve_scc(system)


def test_region_rounds_carry_converge_spans():
    system = ParallelRDSystem(build_pfg(par_diamond_loop(2, 2)))
    with obs.session() as sess:
        solve_scc(system)
    region = sess.tracer.find("region")
    assert region is not None
    converges = [s for s, _ in region.walk() if s.name == "converge"]
    rounds = [s for s in region.children if s.name == "round"]
    assert rounds and all(r.children[-1].name == "converge" for r in rounds)
    # one check of the initial state, then one per round
    assert len(converges) == len(rounds) + 1
    assert {s.attrs["rows"] for s in converges} == {5 * region.attrs["nodes"]}
