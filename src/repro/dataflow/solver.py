"""Fixpoint solvers, node orderings and the one name → engine dispatch.

The paper defines one equation system per program class (§2, §5, §6);
the solvers below are only evaluation schedules for those equations.
:func:`run_solver` maps a solver name (one of :data:`SOLVER_NAMES`, the
list every surface accepts) to an engine:

``stabilized`` → :func:`solve_stabilized`
    The deterministic phase-alternating driver for the non-monotone
    parallel/synchronized systems; each phase after the first two
    re-solves only the cone the previous phase changed, sweeping dirty
    nodes only.  A system without a kill layer (§2) is monotone with a
    unique fixpoint, so there it runs round-robin.

``round-robin`` → :func:`solve_round_robin`
    Sweep all nodes in a fixed order until a full sweep changes nothing.
    With ``order="document"`` this reproduces the paper's iteration tables
    exactly (the paper processes blocks in listing order); the per-pass
    ``snapshot_passes`` option records state after each sweep so golden
    tests can compare against the paper's Figure 11 (after pass 1) and
    Figure 12 (after pass 2).

``worklist`` → :func:`solve_worklist`
    Classic worklist: re-evaluate a node when one of the nodes it depends
    on changed.  Fewer updates on sparse graphs; same fixpoint.

``scc`` → :func:`~repro.dataflow.sched.solve_scc`
    The sparse SCC-scheduled engine that evaluates dependence regions in
    topological order.

Orderings (``make_order``): ``document`` (creation order), ``rpo``
(reverse postorder over control edges — the "depth first traversal" the
paper cites as converging in ~5 passes), ``reverse-document`` (pessimal for
forward problems, for the ordering benchmark) and ``random:<seed>``.

Observability: every solver reports to the process-current tracer and
metrics registry (:mod:`repro.obs`) — a ``solve`` span wrapping the run,
one ``pass`` span per sweep, ``solve.*`` counters including per-order
totals (``solve.<order>.passes``), and a worklist-length histogram for
``solve_worklist``.  Disabled by default: with no session installed the
instruments are no-op singletons and per-node work carries no
instrumentation at all (only per-pass no-op calls remain).

Guarded execution: every solver accepts an optional
:class:`~repro.dataflow.budget.ResourceBudget` (wall-clock deadline +
pass/update caps) and raises a typed
:class:`~repro.dataflow.budget.NonConvergenceError` — carrying the
:class:`SolveStats` and the partial state snapshot — when a budget trips
or the terminal ``max_passes`` safety net is hit.  No solver ever
*returns* with ``converged=False``.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush
from typing import List, Optional, Sequence, Tuple, TypeVar

from ..obs import get_metrics, get_tracer
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .budget import NonConvergenceError, ResourceBudget, check_budget
from .framework import EquationSystem, SolveStats

N = TypeVar("N")

#: Safety budget: monotone systems over finite lattices converge in
#: O(nodes × lattice height) passes; anything past this is a bug.
DEFAULT_MAX_PASSES = 10_000

#: Default cap on per-pass snapshots (see ``solve_round_robin``).
DEFAULT_MAX_SNAPSHOTS = 1_000


def make_order(graph: ParallelFlowGraph, order: str) -> List[PFGNode]:
    """Resolve an ordering name to a concrete node list.

    Always returns a fresh list the caller may mutate; in particular
    ``random:<seed>`` shuffles a private copy, never the list
    ``graph.document_order()`` handed out (two orderings drawn with
    different seeds must not contaminate each other or the graph).
    """
    if order == "document":
        return list(graph.document_order())
    if order == "rpo":
        return list(graph.reverse_postorder())
    if order == "reverse-document":
        return list(reversed(graph.document_order()))
    if order.startswith("random"):
        seed = int(order.split(":", 1)[1]) if ":" in order else 0
        nodes = list(graph.document_order())
        random.Random(seed).shuffle(nodes)
        return nodes
    raise ValueError(
        f"unknown order {order!r}; choose document, rpo, reverse-document or random[:seed]"
    )


def _record_solver_metrics(solver: str, order_name: str, stats: SolveStats) -> None:
    """Post-hoc metric totals (one call per solve, nothing per node)."""
    m = get_metrics()
    if not m.enabled:
        return
    m.inc("solve.runs")
    if not stats.sweepless:
        m.inc("solve.passes", stats.passes)
    m.inc("solve.node_updates", stats.node_updates)
    m.inc("solve.changed_updates", stats.changed_updates)
    # Per-order totals let the ordering ablations read straight off the
    # registry (the base order name, without solver-mode prefixes).
    base = order_name.split("/")[-1]
    m.inc(f"solve.{base}.runs")
    if not stats.sweepless:
        m.inc(f"solve.{base}.passes", stats.passes)
    m.inc(f"solve.{base}.node_updates", stats.node_updates)
    m.inc(f"solve.{solver}.runs")


def _finalize_provenance(system, stats: SolveStats) -> None:
    """Post-convergence provenance hook, shared by every solver.

    When the system opted in (``wants_provenance`` — see
    :class:`~repro.dataflow.framework.EquationSystem`), derive its
    justification graph from the converged state under a
    ``provenance-record`` tracer span.  Deriving *after* convergence
    (never during iteration) keeps the recording a pure function of the
    fixpoint, so the stabilized and SCC engines — which compute the same
    fixpoint — record identical justifications; the disabled path is a
    single ``getattr`` per solve.
    """
    if not getattr(system, "wants_provenance", False):
        return
    tracer = get_tracer()
    with tracer.span("provenance-record") as span:
        prov = system.record_justifications()
        if tracer.enabled:
            span.annotate(facts=len(prov))
    m = get_metrics()
    if m.enabled:
        m.inc("provenance.records")
        m.inc("provenance.facts", len(prov))


def solve_round_robin(
    system: EquationSystem[N],
    order: Optional[Sequence[N]] = None,
    order_name: str = "document",
    max_passes: int = DEFAULT_MAX_PASSES,
    snapshot_passes: bool = False,
    max_snapshots: int = DEFAULT_MAX_SNAPSHOTS,
    budget: Optional[ResourceBudget] = None,
) -> SolveStats:
    """Iterate full sweeps until fixpoint; returns iteration statistics.

    ``snapshot_passes`` stores ``system.snapshot()`` after **every** sweep
    in ``stats.snapshots`` — each snapshot is a full copy of all node
    variables, so memory grows as O(passes × nodes × set size).  The
    ``max_snapshots`` cap (default ``DEFAULT_MAX_SNAPSHOTS``) turns a
    runaway recording into a clear error instead of memory exhaustion;
    raise it explicitly for long golden traces.

    ``budget`` bounds the run operationally (deadline / passes / updates)
    and is checked once per sweep; a tripped budget raises
    :class:`~repro.dataflow.budget.BudgetExceeded` with the partial state.
    """
    nodes = list(order) if order is not None else list(system.nodes())
    tracer = get_tracer()
    if budget is not None:
        budget.start()
    system.initialize()
    stats = SolveStats(order=order_name)
    with tracer.span("solve", solver="round-robin", order=order_name) as span:
        if tracer.enabled:
            stats.span = span
        while stats.passes < max_passes:
            if budget is not None:
                budget.charge_pass()
                check_budget(budget, stats, system)
            stats.passes += 1
            changed = False
            before = stats.changed_updates
            with tracer.span("pass", index=stats.passes) as pass_span:
                for node in nodes:
                    stats.node_updates += 1
                    if system.update(node):
                        stats.changed_updates += 1
                        changed = True
                pass_span.annotate(changed_updates=stats.changed_updates - before)
            if budget is not None:
                budget.charge_updates(len(nodes))
            if snapshot_passes:
                if len(stats.snapshots) >= max_snapshots:
                    raise RuntimeError(
                        f"snapshot_passes exceeded max_snapshots={max_snapshots}: "
                        f"each snapshot copies every node variable; raise "
                        f"max_snapshots only if you can afford the memory"
                    )
                stats.snapshots.append(system.snapshot())
            if changed:
                stats.changing_passes += 1
            else:
                stats.converged = True
                _finalize_provenance(system, stats)
                span.annotate(**stats.as_dict())
                _record_solver_metrics("round-robin", order_name, stats)
                return stats
        span.annotate(**stats.as_dict())
    raise NonConvergenceError(
        stats,
        reason=f"terminal pass cap max_passes={max_passes} hit (equation bug?)",
        snapshot=system.snapshot(),
    )


def solve_worklist(
    system: EquationSystem[N],
    order: Optional[Sequence[N]] = None,
    order_name: str = "worklist",
    max_updates: Optional[int] = None,
    budget: Optional[ResourceBudget] = None,
) -> SolveStats:
    """Worklist iteration seeded with all nodes (in ``order``).

    ``max_updates`` is the terminal safety net (defaults to passes×nodes
    equivalent of the round-robin cap); ``budget`` is the operational
    :class:`~repro.dataflow.budget.ResourceBudget`, checked per update.
    """
    nodes = list(order) if order is not None else list(system.nodes())
    tracer = get_tracer()
    metrics = get_metrics()
    observing = metrics.enabled
    if observing:
        queue_hist = metrics.histogram("solve.worklist.len")
    if budget is not None:
        budget.start()
    system.initialize()
    # A worklist run has no notion of sweeps; mark the stats sweepless so
    # pass counts are omitted from reports instead of rendering as 0.
    stats = SolveStats(order=order_name, sweepless=True)
    update_cap = max_updates if max_updates is not None else DEFAULT_MAX_PASSES * max(1, len(nodes))
    queue = deque(nodes)
    queued = set(nodes)
    with tracer.span("solve", solver="worklist", order=order_name) as span:
        if tracer.enabled:
            stats.span = span
        while queue:
            if observing:
                queue_hist.observe(len(queue))
            node = queue.popleft()
            queued.discard(node)
            stats.node_updates += 1
            if budget is not None:
                budget.charge_updates()
                check_budget(budget, stats, system)
            if stats.node_updates > update_cap:
                span.annotate(**stats.as_dict())
                raise NonConvergenceError(
                    stats,
                    reason=f"terminal update cap max_updates={update_cap} hit (equation bug?)",
                    snapshot=system.snapshot(),
                )
            if system.update(node):
                stats.changed_updates += 1
                for dep in system.dependents(node):
                    if dep not in queued:
                        queued.add(dep)
                        queue.append(dep)
        stats.converged = True
        _finalize_provenance(system, stats)
        span.annotate(**stats.as_dict())
    _record_solver_metrics("worklist", order_name, stats)
    return stats


def solve_stabilized(
    system,
    order: Optional[Sequence[N]] = None,
    order_name: str = "document",
    max_passes: int = DEFAULT_MAX_PASSES,
    max_rounds: int = 100,
    budget: Optional[ResourceBudget] = None,
) -> SolveStats:
    """Phase-alternating least-fixpoint solver for the parallel/
    synchronized systems (DESIGN.md §5, "solver modes").

    The paper's equations mix ascending flow (``In``/``Out``) with
    subtractive kill sets (``ACCKill``/``ForkKill``/``SynchPass``); the
    combined system is **not monotone**, and plain chaotic iteration can
    both fail to terminate and converge to *different* fixpoints depending
    on visit order (transient facts get trapped in loops — see
    ``tests/regression/test_fixpoint_multiplicity.py``).

    This driver restores determinism by alternating two phases that are
    each monotone with the other half frozen:

    1. **flow phase** — solve ``In``/``Out`` (``update_flow``) to the
       least fixpoint given the current kill layer;
    2. **kill phase** — solve the kill layer (``update_kill``) to its
       least fixpoint given the current flow.

    Rounds repeat until a full round leaves the state unchanged.  Each
    phase result is a least fixpoint of a monotone system, hence
    independent of sweep order — so the overall result is deterministic
    and visit-order independent; it is also never less precise than any
    fixpoint chaotic iteration can reach on the paper's examples
    (property-tested).

    **Sparse phases.**  The first flow phase and the first kill phase
    solve every node from ⊥.  Every later phase resets to ⊥ (with
    ``reset_flow_nodes``/``reset_kill_nodes``) only the *cone* of the
    previous phase: the forward closure over ``system.dependents`` of the
    nodes whose rows that phase changed.  A row outside the cone reads no
    changed input, directly or upstream, so it already holds the new
    phase's least fixpoint; the start state is a post-fixpoint below that
    fixpoint, and Kleene iteration from it reaches exactly it.  Each sweep
    then evaluates only *dirty* nodes, in sweep order: the cone, plus the
    readers of a node whose update reported a change (later in the order:
    this sweep; earlier: the next).  A node that reported a change stays
    dirty for one more sweep, so a phase ends with a sweep that changes
    nothing (and a dropped update — :class:`~repro.robust.chaos.ChaosSystem`
    — is retried).  The rows per phase, and hence the round states, are
    those of a from-⊥ phase; ``stats.node_updates`` counts the
    evaluations actually run, which is also what ``budget`` is charged.

    **Cycle resolution.**  The outer round functional is itself not
    monotone, so the round sequence can enter a cycle (period-2 cases
    arise from loop-carried synchronization kills; see
    ``tests/regression/test_fixpoint_multiplicity.py``).  When a round
    state repeats, the solver resolves deterministically and soundly: the
    kill layer is forced to the pointwise **intersection** over the
    cycle's states — keeping only kill facts justified in *every* state,
    i.e. erring toward fewer kills / more reaching definitions — and one
    final flow phase is run over the cone of the kill rows the
    intersection changed.  ``stats.order`` gains a ``+cycle`` suffix when
    this path triggers.

    **Convergence check.**  Round states are compared by
    ``system.state_key()`` — a hashable tuple of the *encoded* rows of
    every slot — never by decoded snapshots: encoded equality is exact, so
    rows, stats and the ``+cycle`` decision are those of a snapshot
    comparison, without a ``to_frozenset`` per row per round.  Each check
    runs under a ``converge`` span (child of ``round``, annotated with the
    number of rows compared).  ``snapshot()`` is called only on the error
    paths, once.  Each ``phase`` span is annotated with ``cone`` (rows
    reset) and ``evaluated`` (node updates run).

    The required ``EquationSystem`` surface is ``update_flow``/
    ``update_kill``/``reset_flow_nodes``/``reset_kill_nodes``/
    ``dependents``/``state_key``/``snapshot``/``kill_state``/
    ``set_kill_state``/``meet_values``.
    """
    nodes = list(order) if order is not None else list(system.nodes())
    tracer = get_tracer()
    if budget is not None:
        budget.start()
    system.initialize()
    stats = SolveStats(order=f"stabilized/{order_name}")
    position = {node: i for i, node in enumerate(nodes)}
    # readers[i]: sweep positions of the nodes whose equations read node i.
    readers = [
        tuple({position[d] for d in system.dependents(node) if d in position})
        for node in nodes
    ]

    def changed_rows(before: tuple, after: tuple, cone: List[int]) -> List[int]:
        """Positions in ``cone`` whose rows differ between two
        ``state_key(cone)`` tuples (slot-major, so row k is node k % len)."""
        if before == after:
            return []
        width = len(cone)
        return [cone[k % width] for k, (a, b) in enumerate(zip(before, after)) if a != b]

    def cone_of(changed: List[int]) -> List[int]:
        """The forward closure of ``changed`` over ``readers``, ascending."""
        seen = set(changed)
        stack = list(seen)
        while stack:
            for j in readers[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return sorted(seen)

    def solve_phase(update, reset_nodes, kind: str, cone: List[int]) -> List[int]:
        """Reset the ``cone`` positions to ⊥ and sweep its dirty nodes to
        fixpoint; return the positions whose rows the phase changed."""
        with tracer.span("phase", kind=kind) as phase_span:
            cone_nodes = [nodes[i] for i in cone]
            before = system.state_key(cone_nodes)
            reset_nodes(cone_nodes)
            dirty = list(cone)
            phase_passes = evaluated = 0
            while dirty:
                if budget is not None:
                    budget.charge_pass()
                    check_budget(budget, stats, system)
                stats.passes += 1
                phase_passes += 1
                if stats.passes > max_passes:
                    raise NonConvergenceError(
                        stats,
                        reason=f"terminal pass cap max_passes={max_passes} hit (equation bug?)",
                        snapshot=system.snapshot(),
                    )
                heap = dirty  # ascending, hence already a heap
                queued = set(heap)
                again = set()
                before_changed = stats.changed_updates
                with tracer.span("pass", index=stats.passes, kind=kind) as pass_span:
                    while heap:
                        i = heappop(heap)
                        if update(nodes[i]):
                            stats.changed_updates += 1
                            again.add(i)
                            for j in readers[i]:
                                if j <= i:
                                    again.add(j)
                                elif j not in queued:
                                    queued.add(j)
                                    heappush(heap, j)
                    pass_span.annotate(changed_updates=stats.changed_updates - before_changed)
                stats.node_updates += len(queued)
                evaluated += len(queued)
                if budget is not None:
                    budget.charge_updates(len(queued))
                    check_budget(budget, stats, system)
                if again:
                    stats.changing_passes += 1
                dirty = sorted(again)
            phase_span.annotate(passes=phase_passes, cone=len(cone), evaluated=evaluated)
            return changed_rows(before, system.state_key(cone_nodes), cone)

    flow, kill = system.update_flow, system.update_kill
    reset_flow, reset_kill = system.reset_flow_nodes, system.reset_kill_nodes
    with tracer.span("solve", solver="stabilized", order=order_name) as span:
        if tracer.enabled:
            stats.span = span
        everything = list(range(len(nodes)))
        flow_changed = solve_phase(flow, reset_flow, "flow", everything)
        history: List[tuple] = [system.state_key()]
        kill_history: List[object] = [system.kill_state()]
        for round_index in range(max_rounds):
            with tracer.span("round", index=round_index):
                # The first kill phase has no earlier kill fixpoint to keep.
                kill_cone = everything if round_index == 0 else cone_of(flow_changed)
                kill_changed = solve_phase(kill, reset_kill, "kill", kill_cone)
                flow_changed = solve_phase(flow, reset_flow, "flow", cone_of(kill_changed))
                with tracer.span("converge") as converge_span:
                    current = system.state_key()
                    settled = current == history[-1]
                    repeated = not settled and current in history
                    converge_span.annotate(rows=len(current))
            if settled:
                stats.converged = True
                _finalize_provenance(system, stats)
                span.annotate(rounds=round_index + 1, **stats.as_dict())
                _record_solver_metrics("stabilized", order_name, stats)
                return stats
            if repeated:
                # Oscillation: meet the kill layers over the cycle, then one
                # final flow phase under the (now conservative) frozen kills.
                start = history.index(current)
                cycle_kills = kill_history[start:] + [system.kill_state()]
                kills_before = system.state_key(nodes)
                system.set_kill_state(_meet_kill_states(system, cycle_kills))
                met = changed_rows(kills_before, system.state_key(nodes), everything)
                solve_phase(flow, reset_flow, "flow", cone_of(met))
                stats.order += "+cycle"
                stats.converged = True
                _finalize_provenance(system, stats)
                span.annotate(rounds=round_index + 1, cycle=True, **stats.as_dict())
                _record_solver_metrics("stabilized", order_name, stats)
                return stats
            history.append(current)
            kill_history.append(system.kill_state())
        span.annotate(**stats.as_dict())
    raise NonConvergenceError(
        stats,
        reason=f"terminal round cap max_rounds={max_rounds} hit (equation bug?)",
        snapshot=system.snapshot(),
    )


def _meet_kill_states(system, states):
    """Pointwise intersection of kill-layer states (slot -> node -> set)."""
    meet = system.meet_values
    out = {}
    first = states[0]
    for slot in first:
        out[slot] = {}
        for node in first[slot]:
            value = first[slot][node]
            for other in states[1:]:
                value = meet(value, other[slot][node])
            out[slot][node] = value
    return out


#: Every solver name a surface accepts (CLI ``--solver``, serve, fuzz).
SOLVER_NAMES: Tuple[str, ...] = ("stabilized", "round-robin", "worklist", "scc")

#: The engines whose fixpoint is visit-order independent.  On §6 programs
#: the flow→kill feedback through SynchPass makes the system non-monotone,
#: and chaotic iteration (round-robin / worklist) may settle in different,
#: visit-order-dependent fixpoints above it
#: (``tests/regression/test_fixpoint_multiplicity.py``).
DETERMINISTIC_SOLVERS = frozenset({"stabilized", "scc"})

from .sched import solve_scc  # noqa: E402  (after _record_solver_metrics exists)


def run_solver(
    system,
    graph: ParallelFlowGraph,
    order: str = "document",
    solver: str = "stabilized",
    snapshot_passes: bool = False,
    budget: Optional[ResourceBudget] = None,
) -> SolveStats:
    """Solve ``system`` over ``graph`` with the engine named ``solver``.

    ``order`` names the sweep order (:func:`make_order`); the stats'
    order string is ``order`` for round-robin and ``<solver>/<order>``
    otherwise.  ``snapshot_passes`` records the paper's per-sweep
    iterates, so only ``round-robin`` accepts it.  ``budget`` (a
    :class:`~repro.dataflow.budget.ResourceBudget`) guards the run.

    The engines are called through their module-level names (never a
    table built at import time), so a caller that wraps those names
    sees every solve.
    """
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}; choose from {', '.join(SOLVER_NAMES)}")
    if snapshot_passes and solver != "round-robin":
        raise ValueError(
            f"snapshot_passes records the paper's per-sweep iterates, but "
            f"solver={solver!r} has no global sweeps of that kind; "
            f"use solver='round-robin'"
        )
    nodes = make_order(graph, order)
    if solver == "stabilized" and not hasattr(system, "update_kill"):
        solver = "round-robin"  # no kill layer: monotone, one fixpoint
    if solver == "stabilized":
        return solve_stabilized(system, nodes, order_name=order, budget=budget)
    if solver == "round-robin":
        return solve_round_robin(
            system, nodes, order_name=order, snapshot_passes=snapshot_passes, budget=budget
        )
    if solver == "worklist":
        return solve_worklist(system, nodes, order_name=f"worklist/{order}", budget=budget)
    return solve_scc(system, nodes, order_name=f"scc/{order}", budget=budget)
