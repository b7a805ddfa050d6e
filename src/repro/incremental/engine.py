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

The base state lives in :data:`~repro.dataflow.cache.GLOBAL_CACHE` under
``("incr", <program digest>)``.  The key carries **no** backend, solver,
dense-mode, or worker components on purpose: the retained rows are
backend-independent ``frozenset`` values and solver choice never changes
them, so one base serves every configuration — this is the same
wall-clock-only-knobs-out-of-identity contract as
:meth:`DenseConfig.key <repro.dataflow.dense.DenseConfig.key>` (which
excludes ``workers``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..dataflow.cache import GLOBAL_CACHE, MISSING, cached_build_pfg, program_digest
from ..dataflow.dense import DenseConfig
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

#: Engine-level fallback reasons (the request pipeline adds "base-miss"
#: and "degraded" — see docs/incremental.md for the full matrix).
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
    digest: str = ""

    def __post_init__(self):
        if not self.digest:
            # cached_build_pfg stamps the digest on the graph it builds.
            self.digest = getattr(self.graph, "program_digest", None) or program_digest(
                self.program
            )

    @classmethod
    def from_result(cls, program: ast.Program, result: ReachingDefsResult) -> "IncrementalBase":
        return cls(program=program, graph=result.graph, result=result)


@dataclass
class IncrementalOutcome:
    """What an incremental request produced: the (always-present) result
    plus the reuse/fallback provenance that lands on serve responses."""

    result: ReachingDefsResult
    base_digest: str
    regions_reused: int = 0
    regions_solved: int = 0
    nodes_matched: int = 0
    nodes_dirty: int = 0
    fallback: Optional[str] = None

    def stamp(self) -> Dict[str, object]:
        """The ``incremental`` provenance block for responses/CLI."""
        return {
            "base_digest": self.base_digest,
            "regions_reused": self.regions_reused,
            "regions_resolved": self.regions_solved,
            "nodes_matched": self.nodes_matched,
            "nodes_dirty": self.nodes_dirty,
            "fallback": self.fallback,
        }

    def to_base(self, program: ast.Program) -> IncrementalBase:
        """Promote this outcome to the base for the next edit in a chain."""
        return IncrementalBase.from_result(program, self.result)


def store_base(program: ast.Program, result: ReachingDefsResult,
               cache=None) -> Optional[IncrementalBase]:
    """Retain ``result`` as the incremental base for ``program``.

    Stored under ``("incr", digest)`` — deliberately no backend / solver
    / dense / workers components (see module docstring).  Results from
    systems the engine cannot extend (conservative, synch) are stored
    too: a later delta against them falls back cleanly, and the entry
    still answers "have we seen this digest".
    """
    cache = GLOBAL_CACHE if cache is None else cache
    if not cache.enabled:
        return None
    base = IncrementalBase.from_result(program, result)
    cache.put(("incr", base.digest), base)
    return base


def lookup_base(digest: str, cache=None) -> Optional[IncrementalBase]:
    """The retained base for ``digest``, or ``None`` (→ full-solve path)."""
    cache = GLOBAL_CACHE if cache is None else cache
    hit = cache.get(("incr", digest), MISSING)
    return None if hit is MISSING else hit


def incremental_analyze(
    base: IncrementalBase,
    program: ast.Program,
    *,
    backend: str = "bitset",
    solver: str = "stabilized",
    preserved: str = "approx",
    budget=None,
    dense: Optional[DenseConfig] = None,
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
    dirty cone itself is always evaluated by the scc engine (honouring
    ``dense``, including wavefront workers).
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
            budget=budget, dense=dense, cache=cache, graph=graph,
        )
        if cache:
            store_base(program, result)
        return IncrementalOutcome(
            result=result, base_digest=base.digest, fallback=reason
        )
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

    if family == "parallel":
        system = ParallelRDSystem(graph, backend=backend)
        base_rows = {
            "In": base.result.in_sets,
            "Out": base.result.out_sets,
            "ACCKillin": base.result.acc_killin,
            "ACCKillout": base.result.acc_killout,
            "ForkKill": base.result.fork_kill,
        }
    else:
        system = SequentialRDSystem(graph, backend=backend)
        base_rows = {"_in": base.result.in_sets, "_out": base.result.out_sets}

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
                        # The frozenset view rides along so to_result()
                        # skips re-materializing final clean rows.
                        cached = (system.ops.from_defs(mapped), frozenset(mapped))
                        memo[row] = cached
                    seeded[slot][node], known[slot][node] = cached
    except KeyError:
        return fall_back(FALLBACK_UNMAPPED)

    def install() -> None:
        for slot, values in seeded.items():
            target = getattr(system, slot)
            target.update(values)

    stats = solve_scc(
        system,
        make_order(graph, "document"),
        order_name="incr/scc",
        budget=budget,
        verify=verify,
        dense=dense,
        skip_regions=clean,
        seed=install,
    )
    result = system.to_result(stats, known=known)
    metrics.inc("solve.incr.regions_reused", stats.regions_reused)
    metrics.inc("solve.incr.regions_resolved", stats.regions_solved)
    if cache:
        store_base(program, result)
    return IncrementalOutcome(
        result=result,
        base_digest=base.digest,
        regions_reused=stats.regions_reused,
        regions_solved=stats.regions_solved,
        nodes_matched=match.n_matched,
        nodes_dirty=len(match.dirty_nodes),
    )
