"""Sparse SCC-scheduled fixpoint evaluation.

The sweep solvers in :mod:`repro.dataflow.solver` re-evaluate **every**
node on every pass, so cost grows as O(passes × nodes) regardless of
graph shape.  This module implements the classic sparse strategy
instead:

1. Build the **equation-dependence graph** once per system
   (:func:`build_schedule`): an edge ``n → m`` whenever ``m``'s equations
   read one of ``n``'s variables.  The edges come from
   ``system.dependents`` — which already covers sequential, parallel and
   synchronization predecessors plus the technical fork→join edge that
   the kill layer (``ForkKill``/``ACCKillout``/``SynchPass``) reads.
2. Condense it into strongly connected components (iterative Tarjan)
   and order the regions topologically.
3. :func:`solve_scc` then evaluates each region to *local* fixpoint in
   topological order, never touching a region before its inputs are
   final:

   * an **acyclic** (singleton, no self-edge) region is evaluated
     exactly once — all of its inputs are already final, and one
     Gauss–Seidel evaluation of the node's equations yields its final
     values (for the phase-split systems, a fixed ``kill → flow → kill``
     micro-sequence resolves the intra-node variable ordering; the
     trailing kill step is needed only at join nodes, whose
     ``ACCKillout`` reads the node's own ``Out``);
   * a **cyclic** region runs to local fixpoint: a priority worklist
     (priority = position in the caller's sweep order, reverse postorder
     by default) for plain monotone systems, or region-scoped
     flow/kill phase alternation — the :func:`~repro.dataflow.solver.
     solve_stabilized` algorithm restricted to the region, including its
     cycle detection and conservative kill-meet resolution — for the
     paper's parallel/synchronized systems.

The *fixpoints* are untouched: only the evaluation schedule changes.
Singleton regions cost one update (plain) or 2–3 micro-updates (phase
mode) instead of one update per sweep, so acyclic graphs drop from
O(passes × N) to O(N) node updates.

Observability: schedule construction runs under a ``schedule-build``
tracer span (annotated with region counts) and feeds
``solve.scc.schedule_builds`` / ``solve.scc.schedule_cache_hits``
counters; the solve itself reports the usual ``solve`` span and
``solve.*`` counters with solver name ``scc``.

Guarded execution: a :class:`~repro.dataflow.budget.ResourceBudget` is
charged one pass per cyclic-region sweep and one update per node
evaluation, and checked at region granularity (plus per phase pass),
so runaway cyclic regions trip the budget before burning the allowance
of the whole graph.

Chaos caveat: :class:`repro.robust.chaos.ChaosSystem` *drop* faults lie
about convergence ("changed" without updating), which a sweep solver
absorbs by re-sweeping but an exactly-once acyclic region cannot.
Duplicate faults, suppression faults and shuffled sweep orders compose
fine with this solver (pinned by the chaos tests).
"""

from __future__ import annotations

import heapq
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..obs import get_metrics, get_tracer
from . import dense as _dense  # thresholds read at call time (tests patch them)
from .budget import NonConvergenceError, ResourceBudget, check_budget
from .dense import (
    DenseConfig,
    RegionDiverged,
    RegionSolution,
    apply_region_solution,
    build_region_program,
    dense_profile,
    run_region_program,
    solve_region_payload,
)
from .framework import EquationSystem, SolveStats

N = TypeVar("N")

#: Terminal safety cap on iterations *within one region* — same rationale
#: (and value) as ``solver.DEFAULT_MAX_PASSES``: monotone systems over
#: finite lattices converge long before this; hitting it is a bug.
DEFAULT_MAX_REGION_PASSES = 10_000

#: Cap on stabilization rounds within one cyclic region (mirrors
#: ``solve_stabilized``'s ``max_rounds``).
DEFAULT_MAX_REGION_ROUNDS = 100


@dataclass
class Region:
    """One strongly connected component of the dependence graph."""

    index: int
    nodes: List[object]
    #: True when the region needs iteration: more than one node, or a
    #: single node whose equations read their own previous value.
    cyclic: bool


@dataclass
class Schedule:
    """Precomputed evaluation schedule for one equation system.

    ``regions`` is in topological order of the SCC condensation: every
    dependence edge crossing regions goes from an earlier region to a
    later one, so evaluating regions in order guarantees each region
    sees only final upstream values.
    """

    nodes: List[object]
    dependents: Dict[object, List[object]]
    regions: List[Region] = field(default_factory=list)
    region_of: Dict[object, int] = field(default_factory=dict)

    @property
    def n_cyclic(self) -> int:
        return sum(1 for r in self.regions if r.cyclic)

    def describe(self) -> str:
        return (
            f"schedule: {len(self.nodes)} nodes, {len(self.regions)} regions "
            f"({self.n_cyclic} cyclic)"
        )


def build_schedule(system: EquationSystem[N]) -> Schedule:
    """Derive the dependence graph and its SCC condensation for ``system``.

    Canonical and deterministic: nodes are taken in ``system.nodes()``
    order and successors in ``system.dependents`` order, so the schedule
    never depends on the sweep order a later solve happens to use.
    """
    nodes = list(system.nodes())
    known = set(nodes)
    dependents: Dict[object, List[object]] = {}
    for n in nodes:
        seen = set()
        succs = []
        for m in system.dependents(n):
            if m in known and m not in seen:
                seen.add(m)
                succs.append(m)
        dependents[n] = succs

    # Iterative Tarjan.  SCCs pop in reverse topological order of the
    # condensation (an SCC completes only after every SCC it points into),
    # so reversing the emission order gives the evaluation order.
    index: Dict[object, int] = {}
    lowlink: Dict[object, int] = {}
    on_stack: Dict[object, bool] = {}
    stack: List[object] = []
    emitted: List[List[object]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(dependents[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, succs = work[-1]
            advanced = False
            for w in succs:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(dependents[w])))
                    advanced = True
                    break
                if on_stack.get(w):
                    if index[w] < lowlink[v]:
                        lowlink[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w is v or w == v:
                        break
                component.reverse()
                emitted.append(component)

    schedule = Schedule(nodes=nodes, dependents=dependents)
    position = {n: i for i, n in enumerate(nodes)}
    for component in reversed(emitted):
        component.sort(key=position.__getitem__)
        cyclic = len(component) > 1 or component[0] in dependents[component[0]]
        region = Region(index=len(schedule.regions), nodes=component, cyclic=cyclic)
        schedule.regions.append(region)
        for n in component:
            schedule.region_of[n] = region.index
    return schedule


def get_schedule(system: EquationSystem[N]) -> Schedule:
    """The cached :class:`Schedule` for ``system`` (built on first use).

    The schedule depends only on the system's dependence structure, which
    is fixed at construction, so it is computed once and memoized on the
    system instance — repeated ``solve_scc`` calls (ablation sweeps over
    orders, chaos seeds, warm re-solves) pay for Tarjan exactly once.
    """
    cached = getattr(system, "_scc_schedule", None)
    metrics = get_metrics()
    if cached is not None:
        if metrics.enabled:
            metrics.inc("solve.scc.schedule_cache_hits")
        return cached
    tracer = get_tracer()
    with tracer.span("schedule-build") as span:
        schedule = build_schedule(system)
        span.annotate(
            nodes=len(schedule.nodes),
            regions=len(schedule.regions),
            cyclic_regions=schedule.n_cyclic,
        )
    if metrics.enabled:
        metrics.inc("solve.scc.schedule_builds")
    try:
        system._scc_schedule = schedule
    except AttributeError:  # pragma: no cover - systems with __slots__
        pass
    return schedule


def _phase_split(system) -> bool:
    """Systems exposing the stabilized flow/kill protocol get region-scoped
    phase alternation; plain monotone systems get direct evaluation."""
    return all(
        hasattr(system, attr)
        for attr in ("update_flow", "update_kill", "reset_flow_nodes", "reset_kill_nodes")
    )


def _region_snapshot(system, rnodes):
    """``system.snapshot()`` restricted to the region's nodes —
    frozenset-valued, so equality is well-defined for every backend.

    Restriction happens *before* materialization where the system
    supports it: a full-graph snapshot per convergence round is
    O(|graph| * |defs|) and dominated wall clock on wide multi-region
    programs, where each region only ever compares its own rows."""
    try:
        return system.snapshot(nodes=rnodes)
    except TypeError:  # system without restricted-snapshot support
        snap = system.snapshot()
        names = {getattr(n, "name", n) for n in rnodes}
        return {
            slot: {name: value for name, value in values.items() if name in names}
            for slot, values in snap.items()
        }


def _restrict_kill_state(state, nodes):
    node_set = set(nodes)
    return {
        slot: {n: v for n, v in values.items() if n in node_set}
        for slot, values in state.items()
    }


def _meet_region_kills(system, states):
    meet = system.meet_values
    out: Dict[str, Dict[object, object]] = {}
    first = states[0]
    for slot in first:
        out[slot] = {}
        for node in first[slot]:
            value = first[slot][node]
            for other in states[1:]:
                value = meet(value, other[slot][node])
            out[slot][node] = value
    return out


def solve_scc(
    system: EquationSystem[N],
    order: Optional[Sequence[N]] = None,
    order_name: str = "scc",
    max_passes: int = DEFAULT_MAX_REGION_PASSES,
    max_rounds: int = DEFAULT_MAX_REGION_ROUNDS,
    budget: Optional[ResourceBudget] = None,
    verify: bool = False,
    dense: Optional[DenseConfig] = None,
    skip_regions: Optional[AbstractSet[int]] = None,
    seed: Optional[Callable[[], None]] = None,
) -> SolveStats:
    """Sparse fixpoint: evaluate dependence-graph regions in topological
    order, each to local convergence (see module docstring).

    ``order`` only sets the *within-region* sweep priority (ties broken
    by schedule position); the fixpoint is order-invariant, pinned by the
    chaos tests.  ``verify=True`` runs one extra full sweep at the end
    and raises if anything still changes — a debugging/CI guard against a
    system whose ``dependents`` under-approximates its true reads (the
    extra sweep's updates are counted in ``stats.node_updates``).

    ``dense`` (a :class:`~repro.dataflow.dense.DenseConfig`) routes
    eligible cyclic regions through the vectorized region evaluator
    (:mod:`repro.dataflow.dense`) — same fixpoints, byte-identical, with
    per-region dispatch counted in ``stats.dense_regions`` /
    ``stats.scalar_regions``.  With ``dense.workers > 1``, independent
    dense regions at the same condensation depth are solved concurrently
    on a process pool (wavefront scheduling): regions in one wave cannot
    read each other's values (every dependence edge strictly increases
    condensation depth), so the parallel solve is observationally
    identical to the serial one.  Pooled regions are budget-charged at
    the wave barrier (a deadline can overshoot by at most one wave).

    ``skip_regions`` / ``seed`` are the incremental re-analysis hooks
    (:mod:`repro.incremental`): after ``initialize()`` the ``seed``
    callback installs retained rows for the skipped (clean) regions, and
    every region whose index is in ``skip_regions`` is then excluded
    from evaluation — both the serial loop and the wavefront scheduler
    honour the skip set.  Soundness is the caller's obligation: a
    skipped region's seeded values must already be its region-local
    least fixpoint and every dependence *into* a solved region must come
    from a seeded or earlier-solved region.  Skipped/solved counts land
    in ``stats.regions_reused`` / ``stats.regions_solved``.

    Like the worklist solver, the run has no notion of global sweeps:
    ``stats`` is marked ``sweepless`` and reports update counts only.
    """
    schedule = get_schedule(system)
    tracer = get_tracer()
    if budget is not None:
        budget.start()
    system.initialize()
    if seed is not None:
        seed()
    stats = SolveStats(order=order_name, sweepless=True)
    priority: Dict[object, int]
    if order is not None:
        priority = {n: i for i, n in enumerate(order)}
    else:
        priority = {n: i for i, n in enumerate(schedule.nodes)}
    phase_split = _phase_split(system)
    profile = dense_profile(system) if dense is not None else None

    with tracer.span(
        "solve",
        solver="scc",
        order=order_name,
        regions=len(schedule.regions),
        cyclic_regions=schedule.n_cyclic,
    ) as span:
        if tracer.enabled:
            stats.span = span
        ctx = _RegionContext(
            system=system,
            schedule=schedule,
            priority=priority,
            stats=stats,
            tracer=tracer,
            budget=budget,
            max_passes=max_passes,
            max_rounds=max_rounds,
            phase_split=phase_split,
            dense_cfg=dense,
            profile=profile,
            skip_regions=skip_regions,
        )
        if profile is not None and dense.workers > 1:
            _solve_waves(ctx)
        else:
            for region in schedule.regions:
                if skip_regions is not None and region.index in skip_regions:
                    continue
                _solve_one_region(ctx, region)
        if skip_regions is not None:
            stats.regions_reused = sum(
                1 for r in schedule.regions if r.index in skip_regions
            )
            stats.regions_solved = len(schedule.regions) - stats.regions_reused
        if verify:
            for node in schedule.nodes:
                stats.node_updates += 1
                if system.update(node):
                    raise RuntimeError(
                        f"solve_scc verify sweep found {node!r} unconverged: "
                        "the system's dependents() under-approximates its reads"
                    )
        stats.converged = True
        from .solver import _finalize_provenance  # deferred: avoid import cycle

        _finalize_provenance(system, stats)
        span.annotate(**stats.as_dict())
    from .solver import _record_solver_metrics  # deferred: avoid import cycle

    _record_solver_metrics("scc", order_name, stats)
    return stats


@dataclass
class _RegionContext:
    """Everything the per-region drivers share for one ``solve_scc`` run."""

    system: object
    schedule: Schedule
    priority: Dict[object, int]
    stats: SolveStats
    tracer: object
    budget: Optional[ResourceBudget]
    max_passes: int
    max_rounds: int
    phase_split: bool
    dense_cfg: Optional[DenseConfig]
    profile: Optional[str]
    skip_regions: Optional[AbstractSet[int]] = None


def _solve_one_region(ctx: _RegionContext, region: Region) -> None:
    """Evaluate one region to local fixpoint: acyclic singletons directly,
    cyclic regions via the dense evaluator when configured and eligible,
    else the scalar stabilized/worklist drivers."""
    system, stats, budget = ctx.system, ctx.stats, ctx.budget
    if budget is not None:
        check_budget(budget, stats, system)
    if not region.cyclic:
        node = region.nodes[0]
        stats.node_updates += 1
        if ctx.phase_split:
            # kill → flow (→ kill at joins): resolves the
            # intra-node variable ordering in one deterministic
            # micro-sequence; see module docstring.  This is one
            # evaluation of the node's equations — the same unit
            # of work ``update()`` (flow + kill) performs — so it
            # counts as one node update.
            changed = system.update_kill(node)
            changed |= system.update_flow(node)
            if getattr(node, "is_join", True):
                changed |= system.update_kill(node)
            if changed:
                stats.changed_updates += 1
        else:
            if system.update(node):
                stats.changed_updates += 1
        if budget is not None:
            budget.charge_updates()
        return
    if ctx.dense_cfg is not None:
        built = _dense_region_build(ctx, region)
        if built is not None:
            rnodes, prog = built
            _run_dense_region(ctx, region, rnodes, prog)
            return
        stats.scalar_regions += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("solve.dense.scalar_regions")
    if ctx.phase_split:
        _solve_region_stabilized(
            system,
            region,
            ctx.priority,
            stats,
            ctx.tracer,
            budget,
            ctx.max_passes,
            ctx.max_rounds,
        )
    else:
        _solve_region_worklist(
            system, region, ctx.schedule, ctx.priority, stats, budget, ctx.max_passes
        )


def _dense_region_build(ctx: _RegionContext, region: Region):
    """Compile ``region`` for dense evaluation, or None for the scalar
    fallback (unsupported system, or an auto-mode threshold says the
    matrix formulation won't pay)."""
    if ctx.profile is None:
        return None
    cfg = ctx.dense_cfg
    auto = cfg.mode == "auto"
    n = len(region.nodes)
    words = getattr(ctx.system.ops, "n_words", 1)
    if auto and (n < _dense.MIN_NODES or n * words < _dense.MIN_CELLS):
        return None
    rnodes = sorted(region.nodes, key=lambda nd: ctx.priority.get(nd, 0))
    prog = build_region_program(ctx.system, rnodes, ctx.profile)
    if auto and prog.width < _dense.MIN_WIDTH:
        return None
    return rnodes, prog


def _run_dense_region(ctx: _RegionContext, region: Region, rnodes, prog) -> None:
    """Solve one compiled region in-process, budget-charged per sweep
    exactly like the scalar sweep loops."""
    system, stats, budget = ctx.system, ctx.stats, ctx.budget

    def on_sweep(rows: int) -> None:
        if budget is not None:
            budget.charge_pass()
            budget.charge_updates(rows)
            check_budget(budget, stats, system)

    with ctx.tracer.span(
        "dense-region", index=region.index, nodes=len(rnodes), words=prog.n_words
    ) as span:
        try:
            sol = run_region_program(
                prog, ctx.max_passes, ctx.max_rounds, on_sweep=on_sweep
            )
        except RegionDiverged as exc:
            raise NonConvergenceError(
                stats, reason=str(exc), snapshot=system.snapshot()
            ) from None
        apply_region_solution(system, rnodes, sol)
        if ctx.tracer.enabled:
            span.annotate(sweeps=sol.sweeps, rounds=sol.rounds, cycle=sol.cycle)
    _account_dense(stats, sol)


def _account_dense(stats: SolveStats, sol: RegionSolution) -> None:
    stats.node_updates += sol.node_updates
    stats.changed_updates += sol.changed_updates
    stats.dense_regions += 1
    if sol.cycle and not stats.order.endswith("+cycle"):
        stats.order += "+cycle"
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("solve.dense.regions")
        metrics.inc("solve.dense.sweeps", sol.sweeps)
        metrics.inc("solve.dense.rounds", sol.rounds)


def region_depths(schedule: Schedule) -> List[int]:
    """Longest-path depth of each region in the condensation DAG.  Every
    dependence edge crossing regions goes from a strictly shallower to a
    strictly deeper region, so regions of equal depth are provably
    independent — the wavefront invariant."""
    depth = [0] * len(schedule.regions)
    for region in schedule.regions:  # topological order
        d = depth[region.index]
        for n in region.nodes:
            for m in schedule.dependents[n]:
                t = schedule.region_of[m]
                if t != region.index and depth[t] < d + 1:
                    depth[t] = d + 1
    return depth


def _solve_waves(ctx: _RegionContext) -> None:
    """Wavefront scheduling: group regions by condensation depth and,
    within each wave, farm dense-compiled regions out to a process pool
    while the scalar remainder runs in-process.  Wave order is a valid
    topological order, so every region still sees only final upstream
    values; pooled regions are budget-charged (and the budget checked)
    at the wave barrier."""
    stats, budget, system = ctx.stats, ctx.budget, ctx.system
    depths = region_depths(ctx.schedule)
    waves: Dict[int, List[Region]] = {}
    for region in ctx.schedule.regions:
        waves.setdefault(depths[region.index], []).append(region)
    metrics = get_metrics()
    pool: Optional[ProcessPoolExecutor] = None
    try:
        for d in sorted(waves):
            serial: List[Region] = []
            jobs: List[Tuple[Region, list, object]] = []
            for region in waves[d]:
                if ctx.skip_regions is not None and region.index in ctx.skip_regions:
                    continue
                if region.cyclic:
                    built = _dense_region_build(ctx, region)
                    if built is not None:
                        jobs.append((region, built[0], built[1]))
                        continue
                serial.append(region)
            if len(jobs) < 2:
                # Nothing to overlap: run the whole wave in-process (the
                # single dense job, if any, still solves densely).
                for region in waves[d]:
                    _solve_one_region(ctx, region)
                continue
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=ctx.dense_cfg.workers)
            futures = [
                pool.submit(solve_region_payload, (prog, ctx.max_passes, ctx.max_rounds))
                for (_, _, prog) in jobs
            ]
            if metrics.enabled:
                metrics.inc("solve.dense.waves")
                metrics.inc("solve.dense.pooled_regions", len(jobs))
            for region in serial:
                _solve_one_region(ctx, region)
            for (region, rnodes, prog), fut in zip(jobs, futures):
                try:
                    sol = fut.result()
                except RegionDiverged as exc:
                    raise NonConvergenceError(
                        stats, reason=str(exc), snapshot=system.snapshot()
                    ) from None
                apply_region_solution(system, rnodes, sol)
                if budget is not None:
                    budget.charge_region(sol.sweeps, sol.node_updates)
                    check_budget(budget, stats, system)
                _account_dense(stats, sol)
    finally:
        if pool is not None:
            pool.shutdown()


def _solve_region_worklist(
    system, region, schedule, priority, stats, budget, max_passes
) -> None:
    """Priority worklist to local fixpoint over one cyclic region (plain
    monotone systems — unique fixpoint, so priority affects cost only)."""
    region_set = set(region.nodes)
    update_cap = max_passes * len(region.nodes)
    if budget is not None:
        budget.charge_pass()
    tie = 0
    heap = []
    for n in sorted(region.nodes, key=lambda n: priority.get(n, 0)):
        heapq.heappush(heap, (priority.get(n, 0), tie, n))
        tie += 1
    queued = set(region.nodes)
    region_updates = 0
    while heap:
        _, _, node = heapq.heappop(heap)
        queued.discard(node)
        stats.node_updates += 1
        region_updates += 1
        if budget is not None:
            budget.charge_updates()
            check_budget(budget, stats, system)
        if region_updates > update_cap:
            raise NonConvergenceError(
                stats,
                reason=(
                    f"terminal region update cap {update_cap} hit in region "
                    f"{region.index} (equation bug?)"
                ),
                snapshot=system.snapshot(),
            )
        if system.update(node):
            stats.changed_updates += 1
            for dep in schedule.dependents[node]:
                if dep in region_set and dep not in queued:
                    queued.add(dep)
                    heapq.heappush(heap, (priority.get(dep, 0), tie, dep))
                    tie += 1


def _solve_region_stabilized(
    system, region, priority, stats, tracer, budget, max_passes, max_rounds
) -> None:
    """Flow/kill phase alternation restricted to one cyclic region — the
    :func:`~repro.dataflow.solver.solve_stabilized` algorithm at region
    scope, including round-cycle detection with the conservative kill
    meet.  Upstream regions are final, downstream still ⊥, so the
    region-local least fixpoints compose into the global ones."""
    rnodes = sorted(region.nodes, key=lambda n: priority.get(n, 0))

    def sweep(update, kind: str) -> None:
        passes = 0
        while True:
            if budget is not None:
                budget.charge_pass()
                budget.charge_updates(len(rnodes))
                check_budget(budget, stats, system)
            passes += 1
            if passes > max_passes:
                raise NonConvergenceError(
                    stats,
                    reason=(
                        f"terminal pass cap max_passes={max_passes} hit in "
                        f"region {region.index} {kind} phase (equation bug?)"
                    ),
                    snapshot=system.snapshot(),
                )
            changed = False
            for n in rnodes:
                stats.node_updates += 1
                if update(n):
                    stats.changed_updates += 1
                    changed = True
            if not changed:
                return

    with tracer.span("region", index=region.index, nodes=len(rnodes)):
        sweep(system.update_flow, "flow")
        history = [_region_snapshot(system, rnodes)]
        kill_history = [_restrict_kill_state(system.kill_state(), rnodes)]
        for round_index in range(max_rounds):
            system.reset_kill_nodes(rnodes)
            sweep(system.update_kill, "kill")
            system.reset_flow_nodes(rnodes)
            sweep(system.update_flow, "flow")
            current = _region_snapshot(system, rnodes)
            if current == history[-1]:
                return
            if current in history:
                # Oscillation: meet the region's kill layers over the
                # cycle, then one final flow phase (cf. solve_stabilized).
                start = history.index(current)
                cycle_kills = kill_history[start:] + [
                    _restrict_kill_state(system.kill_state(), rnodes)
                ]
                system.set_kill_state(_meet_region_kills(system, cycle_kills))
                system.reset_flow_nodes(rnodes)
                sweep(system.update_flow, "flow")
                if not stats.order.endswith("+cycle"):
                    stats.order += "+cycle"
                return
            history.append(current)
            kill_history.append(_restrict_kill_state(system.kill_state(), rnodes))
        raise NonConvergenceError(
            stats,
            reason=(
                f"terminal round cap max_rounds={max_rounds} hit in region "
                f"{region.index} (equation bug?)"
            ),
            snapshot=system.snapshot(),
        )
