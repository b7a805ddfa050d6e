"""Incremental re-analysis over the SCC condensation.

The reuse argument (why this is *byte-identical*, not approximate):

1. ``solve_scc`` evaluates condensation regions in topological order,
   each to its region-local least fixpoint; the module docstring of
   :mod:`repro.dataflow.sched` proves that composing region-local least
   fixpoints (upstream final, downstream ⊥) yields the global least
   fixpoint.
2. A *clean* region — every node trusted by :func:`match_graphs
   <repro.incremental.diff.match_graphs>` and no dirty region upstream —
   has equations isomorphic to its base counterpart under the node/def
   correspondence, and reads only values from clean regions.  By
   induction along the condensation order, the base rows mapped through
   the definition correspondence *are* its region-local least fixpoint.
3. Installing those mapped rows and re-running only the dirty cone is
   therefore the same computation ``solve_scc`` would have performed
   from scratch, minus region solves whose outputs are already known.

Monotone systems (§2 sequential, §5 parallel) have a unique least
fixpoint, and all solver modes are pinned to it by the agreement tests —
so the incremental answer is byte-identical to a from-scratch solve
under **any** requested deterministic solver, not just ``scc``.  The §6
synchronized system is non-monotone through the Preserved interplay and
stays whole-program: any Post/Wait on either side triggers a full-solve
fallback (counted, never wrong).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..dataflow.cache import cached_build_pfg
from ..dataflow.sched import get_schedule, solve_scc
from ..dataflow.solver import make_order
from ..driver import analyze
from ..lang import ast
from ..obs import get_metrics
from ..pfg import ParallelFlowGraph, build_pfg
from ..reachdefs import equation_family
from ..reachdefs.parallel import ParallelRDSystem
from ..reachdefs.result import ReachingDefsResult
from ..reachdefs.sequential import SequentialRDSystem
from .diff import dirty_regions, match_graphs

#: Fallback reasons (docs/incremental.md has the matrix).
FALLBACK_SYNC = "sync"
FALLBACK_UNMATCHED = "unmatched"
FALLBACK_SYSTEM = "system-mismatch"
FALLBACK_UNMAPPED = "unmapped-defs"


@dataclass
class IncrementalBase:
    """Retained state from one full analysis: the program, its PFG, and
    the solved rows — everything a later delta needs."""

    program: ast.Program
    graph: ParallelFlowGraph
    result: ReachingDefsResult

    @classmethod
    def from_result(cls, program: ast.Program, result: ReachingDefsResult) -> "IncrementalBase":
        return cls(program=program, graph=result.graph, result=result)


@dataclass
class IncrementalOutcome:
    """What one incremental re-analysis produced: the (always-present)
    result plus its reuse/fallback provenance."""

    result: ReachingDefsResult
    regions_reused: int = 0
    regions_solved: int = 0
    nodes_matched: int = 0
    nodes_dirty: int = 0
    fallback: Optional[str] = None

    def to_base(self, program: ast.Program) -> IncrementalBase:
        """Promote this outcome to the base for the next edit in a chain."""
        return IncrementalBase.from_result(program, self.result)


def incremental_analyze(
    base: IncrementalBase,
    program: ast.Program,
    *,
    backend: str = "bitset",
    solver: str = "stabilized",
    preserved: str = "approx",
    budget=None,
    verify: bool = False,
    cache: bool = True,
) -> IncrementalOutcome:
    """Re-analyze ``program`` reusing ``base`` where the diff allows.

    Always returns a terminal outcome: on any fallback condition (sync
    involvement, unusable base system, structurally unmatched diff,
    unmappable retained rows) the engine runs the ordinary full analysis
    and reports the reason in ``outcome.fallback`` — callers never need
    a second code path.  ``verify=True`` makes the partial solve run the
    scheduler's full verification sweep (every node, including seeded
    ones, is re-evaluated and must be stable) — the strongest runtime
    check that reuse was sound.

    Reuse is solver-independent (see module docstring), so ``solver``
    only affects the fallback path and the result's provenance; the
    dirty cone itself is always evaluated by the scc engine.
    """
    metrics = get_metrics()
    metrics.inc("solve.incr.requests")
    graph = cached_build_pfg(program) if cache else build_pfg(program)

    def fall_back(reason: str) -> IncrementalOutcome:
        metrics.inc("solve.incr.fallbacks")
        # The graph built for matching is handed through — the fallback
        # must not pay PFG construction twice (the overhead gate in
        # benchmarks/run_incremental.py pins this at <= 5%).
        result = analyze(
            program, backend=backend, solver=solver, preserved=preserved,
            budget=budget, cache=cache, graph=graph,
        )
        return IncrementalOutcome(result=result, fallback=reason)
    family = equation_family(graph)
    if family == "synch" or equation_family(base.graph) == "synch":
        return fall_back(FALLBACK_SYNC)
    if base.result.system != family:
        # The base rows come from a different equation system (degraded
        # conservative rung, or the program changed family entirely).
        return fall_back(FALLBACK_SYSTEM)

    match = match_graphs(base.graph, graph)
    if match.n_matched == 0:
        return fall_back(FALLBACK_UNMATCHED)

    system_class = ParallelRDSystem if family == "parallel" else SequentialRDSystem
    system = system_class(graph, backend=backend)
    base_rows = system.rows_of(base.result)

    schedule = get_schedule(system)
    dirty = dirty_regions(match, schedule)
    clean = frozenset(r.index for r in schedule.regions) - dirty

    # Pre-map the retained rows for every clean node.  By the cone
    # argument every definition in a clean row originates upstream of the
    # dirty frontier and must be mapped; an unmapped def means the match
    # under-approximated the perturbation — fall back rather than risk it.
    seeded: Dict[str, Dict[object, object]] = {slot: {} for slot in base_rows}
    known: Dict[str, Dict[object, frozenset]] = {slot: {} for slot in base_rows}
    # Distinct row values repeat heavily across nodes and slots (a
    # single-pred node's In IS its predecessor's Out; kill rows repeat
    # across a construct) — map each distinct frozenset once.
    memo: Dict[frozenset, tuple] = {}
    try:
        for region in schedule.regions:
            if region.index not in clean:
                continue
            for node in region.nodes:
                b = match.new_to_base[node]
                for slot, rows in base_rows.items():
                    row = rows[b]
                    cached = memo.get(row)
                    if cached is None:
                        mapped = [match.def_map[d] for d in row]
                        # The frozenset view rides along so a final clean
                        # row is read back as it is, not decoded again.
                        cached = (system.ops.from_defs(mapped), frozenset(mapped))
                        memo[row] = cached
                    seeded[slot][node], known[slot][node] = cached
    except KeyError:
        return fall_back(FALLBACK_UNMAPPED)

    def install() -> None:
        for slot, values in seeded.items():
            system.rows[slot].update(values)

    stats = solve_scc(
        system,
        make_order(graph, "document"),
        order_name="incr/scc",
        budget=budget,
        verify=verify,
        skip_regions=clean,
        seed=install,
    )
    result = system.to_result(stats, known=known)
    metrics.inc("solve.incr.regions_reused", stats.regions_reused)
    metrics.inc("solve.incr.regions_resolved", stats.regions_solved)
    return IncrementalOutcome(
        result=result,
        regions_reused=stats.regions_reused,
        regions_solved=stats.regions_solved,
        nodes_matched=match.n_matched,
        nodes_dirty=len(match.dirty_nodes),
    )
