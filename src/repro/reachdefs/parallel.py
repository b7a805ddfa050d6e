"""Reaching definitions across ``Parallel Sections`` (paper §5, Figure 7).

The equation system::

    Out(n)        = (In(n) − Kill(n) − ParallelKill(n)) ∪ Gen(n)
    In(n)         = ⋃_{p∈pred(n)} Out(p) − ⋃_{p∈par_pred(n)} ACCKillout(p)
    ACCKillout(n) = ∅                                              (fork)
                  = ((ACCKillin(n) ∪ Kill(n)) − Gen(n))
                      ∪ (ForkKill(fork(n)) − Out(n))               (join)
                  = (ACCKillin(n) ∪ Kill(n)) − Gen(n)              (else)
    ACCKillin(n)  = ⋃_{par_pred} ACCKillout ∪ ⋂_{seq_pred} ACCKillout
    ForkKill(n)   = (ACCKillin(n) ∪ Kill(n)) − Gen(n)  (fork), ∅ otherwise

Key semantics encoded here (paper §5's three "fundamental concepts"):

* every branch of a fork executes, so a definition from before the
  construct dies at the join if **some** always-executing branch kills it
  (``ACCKillout`` accumulates those kills; the join subtracts them);
* a *conditionally* killed definition survives (the conditional's merge
  intersects the two arms' ``ACCKillout``, dropping the kill);
* definitions in concurrent threads never kill each other
  (``ParallelKill`` is excluded from ``Out`` but also from ``ACCKill``);
  several definitions of one variable reaching a join flags a potential
  anomaly.

``ForkKill`` snapshots the accumulated kills at the fork so the join of a
*nested* construct does not lose outer-construct kill information; it
reaches the join over the fork↔join link (the paper's technical edge) and
is masked by ``− Out(n)`` so definitions that do reach the join are not
reported as killed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..dataflow.framework import SolveStats
from ..dataflow.solver import run_solver
from ..obs import get_tracer
from ..pfg.edges import EdgeKind
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import NodeKind, PFGNode
from .genkill import GenKillInfo
from .result import ReachingDefsResult
from .system import RDSystem


#: The node kinds the kill half tells apart (one global read per update).
_FORK, _JOIN = NodeKind.FORK, NodeKind.JOIN


class ParallelRDSystem(RDSystem):
    """Equation system for §5 (no event synchronization).

    Synchronization edges, if present in the graph, are ignored by this
    system (the §6 system handles them); control structure is fully
    honoured.
    """

    system_name = "parallel"

    slots = ("In", "Out", "ACCKillin", "ACCKillout", "ForkKill")

    #: The kill layer: the rows the stabilized solver's kill phase owns.
    kill_slots = ("ACCKillin", "ACCKillout", "ForkKill")

    def __init__(
        self,
        graph: ParallelFlowGraph,
        backend: str = "bitset",
        info: Optional[GenKillInfo] = None,
        record_provenance: bool = False,
    ):
        super().__init__(graph, backend=backend, info=info, record_provenance=record_provenance)
        info, universe, local = self.info, self._universe, self._local
        #: Per node, compiled once: the flow half's inputs
        #: ``(pred, par_pred, sync_pred, U − (Kill ∪ ParallelKill), Gen)``
        #: (``sync_pred`` empty unless :attr:`sync_edges`) and the
        #: kill half's ``(kind, joined, met, Kill, U − Gen, fork)``.
        #: The kill families follow :meth:`update_kill`: at a join, ``joined``
        #: is par_pred (unioned) and ``met`` seq_pred (intersected);
        #: elsewhere ``joined`` is empty and ``met`` is par_pred + seq_pred.
        self._flow_plan: Dict[PFGNode, tuple] = {}
        self._kill_plan: Dict[PFGNode, tuple] = {}
        other, gen_of, kill_of = local(info.other_defs), local(info.gen), local(info.kill)
        sync_edges = self.sync_edges
        for n in graph.nodes:
            preds, par, seq, sync = [], [], [], []
            for p, edge in graph.in_edges(n):
                if edge is EdgeKind.SEQ:
                    seq.append(p)
                elif edge is EdgeKind.PAR:
                    par.append(p)
                elif sync_edges:
                    sync.append(p)
                else:
                    continue
                preds.append(p)
            par, seq = tuple(par), tuple(seq)
            gen = gen_of[n]
            joined, met = (par, seq) if n.kind is _JOIN else ((), par + seq)
            self._flow_plan[n] = (tuple(preds), par, tuple(sync), universe ^ other[n], gen)
            self._kill_plan[n] = (n.kind, joined, met, kill_of[n], universe ^ gen, n.fork)

    # -- framework interface ----------------------------------------------

    def update(self, n: PFGNode) -> bool:
        return self.update_flow(n) | self.update_kill(n)

    def update_flow(self, n: PFGNode) -> bool:
        """Recompute the ascending half (``In``/``Out``) only.  Monotone
        when the kill layer is held fixed — the stabilized solver's flow
        phase (see :func:`repro.dataflow.solver.solve_stabilized`)."""
        preds, par, sync, keep, gen = self._flow_plan[n]
        out, killout = self.Out, self.ACCKillout
        new_in = self._empty
        for p in preds:
            new_in |= out[p]
        if par or sync:
            kills = self._empty
            for p in par:
                kills |= killout[p]
            if sync:
                meet = killout[sync[0]]  # ⋂ over sync_pred (x ∩ x = x)
                for p in sync:
                    meet &= killout[p]
                kills |= meet
            new_in = (new_in | kills) ^ kills
        new_out = (new_in & keep) | gen
        changed = new_in != self.In[n] or new_out != out[n]
        self.In[n] = new_in
        out[n] = new_out
        return changed

    def update_kill(self, n: PFGNode, occurred=None) -> bool:
        """Recompute the kill layer (``ACCKillin``/``ForkKill``/
        ``ACCKillout``) only.  Monotone when ``In``/``Out`` are held
        fixed — the stabilized solver's kill phase.  ``occurred`` is a set
        ``ACCKillin`` gains (§6's ``OtherDefs ∩ SynchPass``).

        ACCKillin(n) = ⋃_par ACCKillout ∪ ⋂_seq ACCKillout — but the
        union-over-parallel-predecessors reading is only justified at
        **join** nodes, where every parallel predecessor has executed.
        Elsewhere the predecessors are alternative arrival paths, and a
        kill is unconditional only if it happened on *all* of them.

        The distinction matters for a loop header that is the first block
        of a section: its entry edge is parallel (from the fork) and its
        latch edge sequential; the paper's formula as written would take
        the latch's accumulated kills unguarded — claiming loop-body kills
        even on the zero-iteration path (found by the dynamic oracle; see
        EXPERIMENTS.md Findings).  On every paper example the two readings
        coincide (non-join nodes there have at most one parallel
        predecessor and no mixed families).
        """
        kind, joined, met, kill, ungen, fork = self._kill_plan[n]
        killout = self.ACCKillout
        empty = self._empty
        killin = empty  # ⋂ of the empty family is ∅ (DESIGN.md §2)
        if met:
            killin = killout[met[0]]  # the first row meets itself: x ∩ x = x
            for p in met:
                killin &= killout[p]
        for p in joined:
            killin |= killout[p]
        if occurred is not None:
            killin |= occurred
        base = (killin | kill) & ungen
        if kind is _FORK:
            new_forkkill, new_killout = base, empty
        elif kind is _JOIN:
            out = self.Out[n]
            new_forkkill = empty
            new_killout = base | ((self.ForkKill[fork] | out) ^ out)
        else:
            new_forkkill, new_killout = empty, base
        changed = (
            killin != self.ACCKillin[n]
            or new_forkkill != self.ForkKill[n]
            or new_killout != killout[n]
        )
        self.ACCKillin[n] = killin
        self.ForkKill[n] = new_forkkill
        killout[n] = new_killout
        return changed

    def reset_flow_nodes(self, nodes: Iterable[PFGNode]) -> None:
        """Reset ``In``/``Out`` of ``nodes`` to ∅, leaving every other row
        intact — a phase's cone (stabilized solver) or a cyclic region
        (SCC scheduler)."""
        self._reset(("In", "Out"), nodes)

    def reset_kill_nodes(self, nodes: Iterable[PFGNode]) -> None:
        """Reset the kill layer of ``nodes`` to ∅ (see :meth:`reset_flow_nodes`)."""
        self._reset(self.kill_slots, nodes)

    # -- stabilized-solver protocol (cycle resolution) -----------------------

    def kill_state(self):
        return {slot: dict(self.rows[slot]) for slot in self.kill_slots}

    def set_kill_state(self, state) -> None:
        for slot in self.kill_slots:
            self.rows[slot].update(state[slot])

    def meet_values(self, a, b):
        return a & b

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        out = list(self.graph.control_succs(n))
        if n.is_fork and n.join is not None:
            out.append(n.join)
        return out

    def to_result(self, stats: SolveStats, known=None) -> ReachingDefsResult:
        return self._result(stats, known)


def solve_parallel(
    graph: ParallelFlowGraph,
    backend: str = "bitset",
    order: str = "document",
    solver: str = "stabilized",
    snapshot_passes: bool = False,
    budget=None,
    record_provenance: bool = False,
) -> ReachingDefsResult:
    """Run the §5 parallel reaching-definitions system to fixpoint.

    ``record_provenance=True`` derives the justification graph after
    convergence and attaches it as ``result.provenance``
    (:mod:`repro.provenance`).  ``solver``, ``snapshot_passes`` and
    ``budget`` as in :func:`~repro.dataflow.solver.run_solver`."""
    with get_tracer().span("encode"):
        system = ParallelRDSystem(graph, backend=backend, record_provenance=record_provenance)
    stats = run_solver(
        system, graph, order, solver, snapshot_passes=snapshot_passes, budget=budget
    )
    return system.to_result(stats)
