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

from typing import Dict, Iterable, List, Optional

from ..dataflow.bitset import make_backend
from ..dataflow.framework import EquationSystem, SolveStats
from ..dataflow.solver import run_solver
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo, compute_genkill
from .result import ReachingDefsResult


class ParallelRDSystem(EquationSystem[PFGNode]):
    """Equation system for §5 (no event synchronization).

    Synchronization edges, if present in the graph, are ignored by this
    system (the §6 system handles them); control structure is fully
    honoured.
    """

    system_name = "parallel"

    #: Whether the In equation reads synchronization edges — the flow-edge
    #: family provenance recording follows (§6 subclass overrides).
    provenance_sync_edges = False

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
        self.ops = make_backend(backend, list(graph.defs))
        ops = self.ops
        self._gen = {n: ops.from_defs(self.info.gen[n]) for n in graph.nodes}
        self._kill = {n: ops.from_defs(self.info.kill[n]) for n in graph.nodes}
        self._parkill = {n: ops.from_defs(self.info.parallel_kill[n]) for n in graph.nodes}
        self._otherdefs = {n: ops.from_defs(self.info.other_defs[n]) for n in graph.nodes}
        # Adjacency, precomputed as lists (hot loop).
        self._all_preds = {n: self._pred_family(n) for n in graph.nodes}
        self._par_preds = {n: graph.par_preds(n) for n in graph.nodes}
        self._seq_preds = {n: graph.seq_preds(n) for n in graph.nodes}
        self.In: Dict[PFGNode, object] = {}
        self.Out: Dict[PFGNode, object] = {}
        self.ACCKillin: Dict[PFGNode, object] = {}
        self.ACCKillout: Dict[PFGNode, object] = {}
        self.ForkKill: Dict[PFGNode, object] = {}

    def _pred_family(self, n: PFGNode) -> List[PFGNode]:
        """``pred(n)`` for the In equation: control predecessors only (the
        synchronized subclass widens this to include sync predecessors)."""
        return self.graph.control_preds(n)

    # -- framework interface ----------------------------------------------

    def nodes(self):
        return self.graph.document_order()

    def initialize(self) -> None:
        empty = self.ops.empty()
        for n in self.graph.nodes:
            self.In[n] = empty
            self.Out[n] = empty
            self.ACCKillin[n] = empty
            self.ACCKillout[n] = empty
            self.ForkKill[n] = empty

    def update(self, n: PFGNode) -> bool:
        return self.update_flow(n) | self.update_kill(n)

    def update_flow(self, n: PFGNode) -> bool:
        """Recompute the ascending half (``In``/``Out``) only.  Monotone
        when the kill layer is held fixed — the stabilized solver's flow
        phase (see :func:`repro.dataflow.solver.solve_stabilized`)."""
        ops = self.ops
        changed = False
        new_in = self._compute_in(n)
        changed |= not ops.equals(new_in, self.In[n])
        self.In[n] = new_in
        new_out = self._compute_out(n)
        changed |= not ops.equals(new_out, self.Out[n])
        self.Out[n] = new_out
        return changed

    def update_kill(self, n: PFGNode) -> bool:
        """Recompute the kill layer (``ACCKillin``/``ForkKill``/
        ``ACCKillout``) only.  Monotone when ``In``/``Out`` are held
        fixed — the stabilized solver's kill phase."""
        ops = self.ops
        changed = False

        new_killin = self._compute_acc_killin(n)
        changed |= not ops.equals(new_killin, self.ACCKillin[n])
        self.ACCKillin[n] = new_killin

        base_kill = ops.union_difference(new_killin, self._kill[n], self._gen[n])

        new_forkkill = base_kill if n.is_fork else ops.empty()
        changed |= not ops.equals(new_forkkill, self.ForkKill[n])
        self.ForkKill[n] = new_forkkill

        if n.is_fork:
            new_killout = ops.empty()
        elif n.is_join:
            assert n.fork is not None
            carried = ops.difference(self.ForkKill[n.fork], self.Out[n])
            new_killout = ops.union(base_kill, carried)
        else:
            new_killout = base_kill
        changed |= not ops.equals(new_killout, self.ACCKillout[n])
        self.ACCKillout[n] = new_killout

        return changed

    def reset_flow(self) -> None:
        empty = self.ops.empty()
        for n in self.graph.nodes:
            self.In[n] = empty
            self.Out[n] = empty

    def reset_kill(self) -> None:
        empty = self.ops.empty()
        for n in self.graph.nodes:
            self.ACCKillin[n] = empty
            self.ACCKillout[n] = empty
            self.ForkKill[n] = empty

    def reset_flow_nodes(self, nodes: Iterable[PFGNode]) -> None:
        """Region-scoped :meth:`reset_flow` for the SCC scheduler — resets
        only the given nodes, leaving upstream (final) regions intact."""
        empty = self.ops.empty()
        for n in nodes:
            self.In[n] = empty
            self.Out[n] = empty

    def reset_kill_nodes(self, nodes: Iterable[PFGNode]) -> None:
        """Region-scoped :meth:`reset_kill` (see :mod:`repro.dataflow.sched`)."""
        empty = self.ops.empty()
        for n in nodes:
            self.ACCKillin[n] = empty
            self.ACCKillout[n] = empty
            self.ForkKill[n] = empty

    # -- stabilized-solver protocol (cycle resolution) -----------------------

    def kill_state(self):
        return {
            "ACCKillin": dict(self.ACCKillin),
            "ACCKillout": dict(self.ACCKillout),
            "ForkKill": dict(self.ForkKill),
        }

    def set_kill_state(self, state) -> None:
        self.ACCKillin.update(state["ACCKillin"])
        self.ACCKillout.update(state["ACCKillout"])
        self.ForkKill.update(state["ForkKill"])

    def meet_values(self, a, b):
        return self.ops.intersection(a, b)

    # -- individual equations (overridden by the synchronized system) -------

    def _compute_in(self, n: PFGNode):
        ops = self.ops
        flow = ops.union_all(self.Out[p] for p in self._all_preds[n])
        par_kills = ops.union_all(self.ACCKillout[p] for p in self._par_preds[n])
        return ops.difference(flow, par_kills)

    def _compute_out(self, n: PFGNode):
        ops = self.ops
        live = ops.difference(ops.difference(self.In[n], self._kill[n]), self._parkill[n])
        return ops.union(live, self._gen[n])

    def _compute_acc_killin(self, n: PFGNode):
        """ACCKillin(n) = ⋃_par ACCKillout ∪ ⋂_seq ACCKillout — but the
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
        ops = self.ops
        if n.is_join:
            par = ops.union_all(self.ACCKillout[p] for p in self._par_preds[n])
            seq = ops.intersection_all(self.ACCKillout[p] for p in self._seq_preds[n])
            return ops.union(par, seq)
        preds = self._par_preds[n] + self._seq_preds[n]
        return ops.intersection_all(self.ACCKillout[p] for p in preds)

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        out = list(self.graph.control_succs(n))
        if n.is_fork and n.join is not None:
            out.append(n.join)
        return out

    # -- provenance (opt-in; see repro.provenance) --------------------------

    def record_justifications(self):
        """Derive the justification graph from the converged sets (the
        solver's post-convergence hook; see
        :func:`repro.dataflow.solver._finalize_provenance`)."""
        from ..provenance.record import build_justifications

        ops = self.ops
        nodes = self.graph.nodes
        self._provenance = build_justifications(
            self.graph,
            {n: ops.to_frozenset(self.In[n]) for n in nodes},
            {n: ops.to_frozenset(self.Out[n]) for n in nodes},
            self.info.gen,
            include_sync=self.provenance_sync_edges,
            system=self.system_name,
        )
        return self._provenance

    # -- results ---------------------------------------------------------------

    def snapshot(self, nodes=None):
        """Frozenset state per slot; ``nodes`` restricts to a subset —
        region-scoped convergence checks must not pay for materializing
        the whole graph every round."""
        ops = self.ops
        if nodes is None:
            nodes = self.graph.nodes
        return {
            name: {n.name: ops.to_frozenset(slot[n]) for n in nodes}
            for name, slot in (
                ("In", self.In),
                ("Out", self.Out),
                ("ACCKillin", self.ACCKillin),
                ("ACCKillout", self.ACCKillout),
                ("ForkKill", self.ForkKill),
            )
        }

    def to_result(self, stats: SolveStats, known=None) -> ReachingDefsResult:
        """``known`` maps slot name → {node: frozenset} for rows whose
        final values are already materialized (the incremental engine's
        seeded clean regions) — frozenset conversion is skipped there."""
        ops = self.ops
        nodes = self.graph.nodes
        known = known or {}

        def mat(slot_name, values):
            pre = known.get(slot_name)
            if not pre:
                return {n: ops.to_frozenset(values[n]) for n in nodes}
            return {
                n: pre[n] if n in pre else ops.to_frozenset(values[n])
                for n in nodes
            }

        return ReachingDefsResult(
            graph=self.graph,
            info=self.info,
            in_sets=mat("In", self.In),
            out_sets=mat("Out", self.Out),
            acc_killin=mat("ACCKillin", self.ACCKillin),
            acc_killout=mat("ACCKillout", self.ACCKillout),
            fork_kill=mat("ForkKill", self.ForkKill),
            stats=stats,
            system=self.system_name,
            provenance=self._provenance,
        )


def solve_parallel(
    graph: ParallelFlowGraph,
    backend: str = "bitset",
    order: str = "document",
    solver: str = "stabilized",
    snapshot_passes: bool = False,
    budget=None,
    record_provenance: bool = False,
    dense=None,
) -> ReachingDefsResult:
    """Run the §5 parallel reaching-definitions system to fixpoint.

    ``record_provenance=True`` derives the justification graph after
    convergence and attaches it as ``result.provenance``
    (:mod:`repro.provenance`).  ``solver``, ``snapshot_passes``,
    ``budget`` and ``dense`` as in
    :func:`~repro.dataflow.solver.run_solver`."""
    system = ParallelRDSystem(graph, backend=backend, record_provenance=record_provenance)
    stats = run_solver(
        system, graph, order, solver, snapshot_passes=snapshot_passes, budget=budget, dense=dense
    )
    return system.to_result(stats)
