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

from ..dataflow.bitset import make_backend
from ..dataflow.framework import EquationSystem, SolveStats
from ..dataflow.solver import run_solver
from ..obs import get_tracer
from ..pfg.edges import EdgeKind
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo, compute_genkill, encode_other_defs
from .result import ReachingDefsResult, materialize


class SequentialRDSystem(EquationSystem[PFGNode]):
    """Equation system for §2; works over any set backend."""

    def __init__(
        self,
        graph: ParallelFlowGraph,
        backend: str = "bitset",
        info: Optional[GenKillInfo] = None,
        record_provenance: bool = False,
    ):
        self.graph = graph
        self.wants_provenance = record_provenance
        self._provenance = None
        self.info = info if info is not None else compute_genkill(graph)
        self.ops = ops = make_backend(backend, list(graph.defs))
        self._empty = ops.empty()
        universe = ops.from_defs(graph.defs)
        #: Per node, compiled once: ``(pred, U − Kill, Gen)``, with the
        #: classical kill — every other definition of a variable defined here.
        #: (Every local set x is a subset of U, so U − x is ``U ^ x``.)
        preds: Dict[PFGNode, list] = {n: [] for n in graph.nodes}
        for src, dst, edge in graph.edges():
            if edge is not EdgeKind.SYNC:
                preds[dst].append(src)
        self._plan: Dict[PFGNode, tuple] = {}
        empty, from_defs, gen_of = self._empty, ops.from_defs, self.info.gen
        for n, killed in encode_other_defs(graph, ops).items():
            gen = gen_of[n]
            self._plan[n] = (tuple(preds[n]), universe ^ killed, from_defs(gen) if gen else empty)
        self._in: Dict[PFGNode, object] = {}
        self._out: Dict[PFGNode, object] = {}

    def nodes(self):
        return self.graph.document_order()

    def initialize(self) -> None:
        empty = self._empty
        for n in self.graph.nodes:
            self._in[n] = empty
            self._out[n] = empty

    def update(self, n: PFGNode) -> bool:
        preds, keep, gen = self._plan[n]
        out = self._out
        new_in = self._empty
        for p in preds:
            new_in |= out[p]
        new_out = (new_in & keep) | gen
        changed = new_in != self._in[n] or new_out != out[n]
        self._in[n] = new_in
        out[n] = new_out
        return changed

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        return self.graph.control_succs(n)

    def record_justifications(self):
        """Solver post-convergence hook (see :mod:`repro.provenance`)."""
        from ..provenance.record import build_justifications

        self._provenance = build_justifications(
            self.graph,
            self._in,
            self._out,
            self.info.gen,
            include_sync=False,
            system="sequential",
        )
        return self._provenance

    def snapshot(self):
        ops = self.ops
        return {
            "In": {n.name: ops.to_frozenset(self._in[n]) for n in self.graph.nodes},
            "Out": {n.name: ops.to_frozenset(self._out[n]) for n in self.graph.nodes},
        }

    def to_result(self, stats: SolveStats, known=None) -> ReachingDefsResult:
        """The result keeps this system's rows encoded, decoded as they are
        read.  ``known`` maps slot name → {node: frozenset} for rows whose
        final values are already decoded (the incremental engine's seeded
        clean regions); see :func:`~repro.reachdefs.result.materialize`."""
        slots = {"_in": self._in, "_out": self._out}
        rows = materialize(self.ops, slots, known)
        return ReachingDefsResult(
            graph=self.graph,
            info=self.info,
            in_sets=rows["_in"],
            out_sets=rows["_out"],
            stats=stats,
            system="sequential",
            provenance=self._provenance,
        )


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
