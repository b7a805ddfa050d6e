"""Maximally conservative reaching definitions — the degradation floor.

When the precise systems cannot be trusted (malformed graph) or cannot be
afforded (budget exhausted), the driver's degradation ladder
(:mod:`repro.robust.degrade`) falls back to this system::

    Out(n) = In(n) ∪ Gen(n)
    In(n)  = ⋃_{p ∈ pred(n)} Out(p)      (pred = seq ∪ par ∪ sync)

No kill sets of any kind: definitions only accumulate along edges, so the
system is plainly monotone over a join-semilattice and converges in
O(graph diameter) round-robin passes — there is no cheaper sound analysis
to fall back *to*.

Soundness argument (why this over-approximates every execution): every
dynamic value flow the interpreter can realize travels along graph edges —
sequential steps along SEQ edges, copy-in at a fork and copy-out at a
join along PAR edges, and a wait absorbing a poster's snapshot along the
SYNC edge.  An analysis that propagates *every* definition across *every*
edge kind and never removes one therefore covers every flow; what it
gives up is exactly what the paper's machinery buys — kills at joins
(``ACCKill``), cross-thread kill exclusion bookkeeping, and the
Preserved-gated synchronization kills — i.e. precision, never safety.
The property is exercised by the degradation tests
(``tests/unit/test_degradation.py``) against the dynamic oracle.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..dataflow.framework import SolveStats
from ..dataflow.solver import make_order, solve_round_robin
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo
from .result import ReachingDefsResult
from .sequential import SequentialRDSystem
from .system import RDSystem


class ConservativeRDSystem(RDSystem):
    """Accumulate-only reaching definitions over all edge kinds."""

    system_name = "conservative"

    def __init__(
        self,
        graph: ParallelFlowGraph,
        backend: str = "bitset",
        info: Optional[GenKillInfo] = None,
    ):
        super().__init__(graph, backend=backend, info=info)
        #: Per node, compiled once: ``(pred, U, Gen)`` — §2's plan with
        #: nothing killed.
        universe, gen = self._universe, self._local(self.info.gen)
        self._plan = {n: (tuple(graph.all_preds(n)), universe, gen[n]) for n in graph.nodes}

    #: §2's update; with keep = U it computes Out = In ∪ Gen.
    update = SequentialRDSystem.update

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        return self.graph.succs(n)

    def to_result(self, stats: SolveStats) -> ReachingDefsResult:
        return self._result(stats)


def solve_conservative(
    graph: ParallelFlowGraph,
    backend: str = "bitset",
    order: str = "document",
    budget=None,
) -> ReachingDefsResult:
    """Run the accumulate-only system to fixpoint.

    Deliberately *not* budgeted by default: this is the analysis the
    ladder runs when everything else has failed, and its convergence is
    bounded by the graph diameter.  A ``budget`` may still be passed for
    symmetry (e.g. to bound a direct caller).
    """
    system = ConservativeRDSystem(graph, backend=backend)
    nodes = make_order(graph, order)
    stats = solve_round_robin(system, nodes, order_name=order, budget=budget)
    return system.to_result(stats)
