"""Reaching definitions with event synchronization (paper §6, Figure 10).

Extends the §5 system with synchronization edges and the ``SynchPass`` set::

    SynchPass(n) = ⋃_{p ∈ synch_pred(n) ∧ p ∈ Preserved(n)} Out(p)   (wait)
                 = ⋃_{par_pred} SynchPass ∪ ⋂_{seq_pred} SynchPass   (else)

    Out(n) = ((In(n) − Kill(n) − ParallelKill(n)) ∪ Gen(n))
               − (OtherDefs(n) ∩ SynchPass(n))

    In(n)  = ⋃_{p∈pred(n)} Out(p)                 (pred = seq ∪ par ∪ sync)
               − ⋃_{p∈par_pred(n)} ACCKillout(p)
               − ⋂_{p∈synch_pred(n)} ACCKillout(p)

    ACCKillin(n) = ⋃_{par_pred} ACCKillout ∪ ⋂_{seq_pred} ACCKillout
                     ∪ (OtherDefs(n) ∩ SynchPass(n))

    ACCKillout / ForkKill — unchanged from §5.

Out's last term is not evaluated: Kill(n) ∪ ParallelKill(n) is
OtherDefs(n), so ``In − Kill − ParallelKill`` holds none of it already,
and Gen(n) is disjoint from it.  The §6 flow half is therefore §5's over
the wider ``pred`` family plus the sync-kill meet
(:attr:`~repro.reachdefs.parallel.ParallelRDSystem.sync_edges`);
``tests/oracles/reference_equations.py`` evaluates the term literally.

Reading of the equations (paper §6):

* A synchronization edge ``post → wait`` carries values: the wait's ``In``
  unions the posts' ``Out`` like any predecessor, so conservatively a
  waiting thread sees what posters produced.
* When the Preserved approximation proves a post *always* completes before
  the wait begins, ``SynchPass`` records the posted definitions as having
  definitely occurred.  Definitions of variables the waiting thread itself
  redefines (``OtherDefs ∩ SynchPass``) are therefore *ordered before* that
  redefinition: they are accumulated into ``ACCKillin`` so the eventual
  join removes them (this is how ``x4``/``x5`` die before node 11 in
  Figure 3), and excluded from ``Out``.
* With *no* Preserved information (``preserved="none"``), ``SynchPass`` is
  empty, the ordering effect vanishes, and merges conservatively report
  every incoming definition — the paper's worst case: still sound, just
  fewer optimization opportunities.

The SynchPass ordering filter (a reproduction refinement)
---------------------------------------------------------

Taken literally, ``SynchPass(w) = ⋃ Out(p)`` over preserved posts admits
*loop-carried* tokens: a definition ``d`` written in a section concurrent
with ``w`` circulates around an enclosing loop, enters ``In(p)`` and hence
``Out(p)``, and is then treated as "definitely executed before ``w``" —
which its *current-iteration* instance is not.  Two consequences, both
observed on generator-produced programs (see
``tests/regression/test_synch_oscillation.py``):

* the accumulated kill wrongly removes ``d`` at the join (unsound for the
  racy variable involved), and
* the subtraction feeds back on itself around the loop, so the equations
  have no fixpoint at all — ``In``/``ACCKill`` oscillate forever.

The paper's justification for SynchPass ("we know those definitions must
have occurred before the synchronization occurred") only holds for tokens
whose **defining node is itself ordered before the wait**.  We therefore
filter::

    SynchPass(w) = ⋃_{p ∈ synch_pred(w) ∧ p ∈ Preserved(w)} Out(p)
                     ∩ {d : node(d) ∈ Preserved(w)}

On every worked example in the paper the filter changes nothing (all the
definitions involved sit in Preserved(8)); on adversarial programs it
restores both soundness and convergence.  ``filter_synch_pass=False``
selects the literal equations for study.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..dataflow.bitset import bit_indices
from ..dataflow.framework import SolveStats
from ..dataflow.solver import run_solver
from ..obs import get_tracer
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo
from .parallel import ParallelRDSystem
from .preserved import PreservedResult, resolve_preserved
from .result import ReachingDefsResult


class SynchRDSystem(ParallelRDSystem):
    """Equation system for §6 (Figure 10)."""

    system_name = "synch"

    slots = ParallelRDSystem.slots + ("SynchPass",)

    #: SynchPass belongs to the kill layer: it feeds ACCKillin and is
    #: monotone given frozen Out sets.
    kill_slots = ParallelRDSystem.kill_slots + ("SynchPass",)

    #: §6's In equation reads sync predecessors.
    sync_edges = True

    def __init__(
        self,
        graph: ParallelFlowGraph,
        preserved: PreservedResult,
        backend: str = "bitset",
        info: Optional[GenKillInfo] = None,
        filter_synch_pass: bool = True,
        record_provenance: bool = False,
    ):
        super().__init__(
            graph, backend=backend, info=info, record_provenance=record_provenance
        )
        self.preserved = preserved
        self.filter_synch_pass = filter_synch_pass
        universe = self._universe
        #: Per node, compiled once: ``(preserved_sync_pred, ordered_defs,
        #: OtherDefs, is_wait)``.  ``preserved_sync_pred`` are the sync
        #: predecessors the Preserved approximation orders before the
        #: wait — the only ones SynchPass reads.
        #: ``ordered_defs`` (waits only) are the definitions whose defining
        #: node is ordered before the wait (the SynchPass ordering filter;
        #: see module docstring), or U with the filter off.  Both are read
        #: off the wait's Preserved mask; no row is decoded.
        self._sync_plan: Dict[PFGNode, tuple] = {}
        masks, nodes, own = preserved.masks, graph.nodes, self._local(self.info.own)
        for n, (_, _, _, keep, _) in self._flow_plan.items():
            ordered, sync_passed = None, ()
            if n.is_wait:
                before = masks[n]
                ordered = universe
                if filter_synch_pass:
                    ordered = self._empty
                    for i in bit_indices(before):
                        ordered |= own[nodes[i]]
                sync_passed = tuple(p for p in graph.sync_preds(n) if before >> p.id & 1)
            other = universe ^ keep  # U − (U − OtherDefs)
            self._sync_plan[n] = (sync_passed, ordered, other, n.is_wait)

    def update_kill(self, n: PFGNode) -> bool:
        sync_passed, ordered, other, is_wait = self._sync_plan[n]
        if is_wait:
            out = self.Out
            new_sp = self._empty
            for p in sync_passed:
                new_sp |= out[p]
            new_sp &= ordered
        else:
            # Union over parallel predecessors only at joins (all of them
            # ran); elsewhere the predecessors are alternative paths — a
            # definition has "definitely occurred" only if every arrival
            # path says so.  Same mixed-predecessor refinement as
            # ACCKillin (see parallel.py).
            _, joined, met, _, _, _ = self._kill_plan[n]
            sp = self.SynchPass
            new_sp = self._empty
            if met:
                new_sp = sp[met[0]]
                for p in met:
                    new_sp &= sp[p]
            for p in joined:
                new_sp |= sp[p]
        changed = new_sp != self.SynchPass[n]
        self.SynchPass[n] = new_sp
        return super().update_kill(n, other & new_sp) | changed

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        out = list(super().dependents(n))
        out.extend(self.graph.succs(n))  # includes sync successors
        return out

    def to_result(self, stats: SolveStats) -> ReachingDefsResult:
        return self._result(stats, preserved=self.preserved)


def solve_synch(
    graph: ParallelFlowGraph,
    backend: str = "bitset",
    order: str = "document",
    solver: str = "stabilized",
    preserved: str = "approx",
    preserved_oracle=None,
    snapshot_passes: bool = False,
    filter_synch_pass: bool = True,
    budget=None,
    record_provenance: bool = False,
) -> ReachingDefsResult:
    """Run the §6 synchronized reaching-definitions system to fixpoint.

    ``preserved`` selects the execution-order information source:
    ``"approx"`` (default, DESIGN.md §2), ``"none"`` (worst case), or
    ``"oracle"`` with ``preserved_oracle`` a node→set mapping.
    ``filter_synch_pass=False`` selects the paper's literal SynchPass
    equation (which can oscillate on loop-carried tokens — see the module
    docstring).  ``solver`` as in :func:`~repro.dataflow.solver.run_solver`:
    ``"stabilized"`` (default, deterministic), ``"scc"``, or the paper's
    ``"round-robin"`` / ``"worklist"`` chaotic iteration.  ``budget`` (a
    :class:`~repro.dataflow.budget.ResourceBudget`) guards the *whole*
    computation — the Preserved approximation and the equation solve
    draw from the same allowance.
    """
    tracer = get_tracer()
    with tracer.span("preserved", mode=preserved):
        pres = resolve_preserved(graph, mode=preserved, oracle=preserved_oracle, budget=budget)
    with tracer.span("encode"):
        system = SynchRDSystem(
            graph,
            preserved=pres,
            backend=backend,
            filter_synch_pass=filter_synch_pass,
            record_provenance=record_provenance,
        )
    stats = run_solver(
        system, graph, order, solver, snapshot_passes=snapshot_passes, budget=budget
    )
    return system.to_result(stats)
