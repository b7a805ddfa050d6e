"""Sequential reaching definitions (paper §2).

The classical two-equation monotone system::

    Out(n) = (In(n) − Kill(n)) ∪ Gen(n)
    In(n)  = ⋃_{p ∈ pred(n)} Out(p)

with ``In`` initialized to the empty set everywhere (the least solution).
``Kill`` here is the classical, concurrency-blind kill set — all other
definitions of variables defined in ``n``.  On a sequential CFG this is the
textbook analysis (Table 1); applied to a *parallel* graph it is the naive
baseline the paper improves on: parallel edges are treated like sequential
ones, so the parallel-merge kill rule and cross-thread effects are missed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..dataflow.framework import SolveStats
from ..dataflow.solver import run_solver
from ..obs import get_tracer
from ..pfg.edges import EdgeKind
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo
from .result import ReachingDefsResult
from .system import RDSystem


class SequentialRDSystem(RDSystem):
    """Equation system for §2; works over any set backend."""

    system_name = "sequential"

    def __init__(
        self,
        graph: ParallelFlowGraph,
        backend: str = "bitset",
        info: Optional[GenKillInfo] = None,
        record_provenance: bool = False,
    ):
        super().__init__(graph, backend=backend, info=info, record_provenance=record_provenance)
        #: Per node, compiled once: ``(pred, U − Kill, Gen)``, with the
        #: classical kill — every other definition of a variable defined here.
        preds: Dict[PFGNode, list] = {n: [] for n in graph.nodes}
        for src, dst, edge in graph.edges():
            if edge is not EdgeKind.SYNC:
                preds[dst].append(src)
        universe, gen = self._universe, self._local(self.info.gen)
        other = self._local(self.info.other_defs)
        self._plan: Dict[PFGNode, tuple] = {
            n: (tuple(preds[n]), universe ^ other[n], gen[n]) for n in graph.nodes
        }

    def update(self, n: PFGNode) -> bool:
        preds, keep, gen = self._plan[n]
        out = self.Out
        new_in = self._empty
        for p in preds:
            new_in |= out[p]
        new_out = (new_in & keep) | gen
        changed = new_in != self.In[n] or new_out != out[n]
        self.In[n] = new_in
        out[n] = new_out
        return changed

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        return self.graph.control_succs(n)

    def to_result(self, stats: SolveStats, known=None) -> ReachingDefsResult:
        return self._result(stats, known)


def solve_sequential(
    graph: ParallelFlowGraph,
    backend: str = "bitset",
    order: str = "document",
    solver: str = "round-robin",
    snapshot_passes: bool = False,
    budget=None,
    record_provenance: bool = False,
) -> ReachingDefsResult:
    """Run sequential reaching definitions to fixpoint on ``graph``.

    ``solver``, ``snapshot_passes`` and ``budget`` as in
    :func:`~repro.dataflow.solver.run_solver`; the system has no kill
    layer, so ``"stabilized"`` runs round-robin."""
    with get_tracer().span("encode"):
        system = SequentialRDSystem(graph, backend=backend, record_provenance=record_provenance)
    stats = run_solver(
        system, graph, order, solver, snapshot_passes=snapshot_passes, budget=budget
    )
    return system.to_result(stats)
