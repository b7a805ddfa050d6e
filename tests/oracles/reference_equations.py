"""Reference equations: the §2/§5/§6 node updates written one set
operation at a time, over frozensets only.

The equation systems in :mod:`repro.reachdefs` compile each node's inputs
once into a plan tuple and apply the set algebra inline with the
operators ints and frozensets share, so the ``set`` and ``bitset``
backends now run the *same* equation code, and comparing them no longer
checks the equations.  This module keeps the algorithm they replaced —
``In``/``Out``/``ACCKillin``/``SynchPass`` each computed by its own
method from node-keyed predecessor lists, with family unions and
intersections folded one operation at a time — so the oracle tests can
apply one update to both from the same state and compare every row and
the returned ``changed`` flag.

Rows live in plain ``{node: frozenset}`` dicts named after the slots
(``In``, ``Out``, ``ACCKillin``, ``ACCKillout``, ``ForkKill``,
``SynchPass``); the caller fills them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

EMPTY: FrozenSet = frozenset()


def union_all(sets: Iterable[FrozenSet]) -> FrozenSet:
    """Union of a family; the empty family gives ∅."""
    out = EMPTY
    for s in sets:
        out = out | s
    return out


def intersection_all(sets: Iterable[FrozenSet]) -> FrozenSet:
    """Intersection of a family; the empty family gives ∅ (DESIGN.md §2)."""
    out = None
    for s in sets:
        out = s if out is None else out & s
    return EMPTY if out is None else out


class ReferenceParallel:
    """§5 (Figure 7) over frozensets."""

    SLOTS = ("In", "Out", "ACCKillin", "ACCKillout", "ForkKill")

    def __init__(self, graph, info):
        self.graph = graph
        self.info = info
        self._all_preds = {n: self._pred_family(n) for n in graph.nodes}
        self._par_preds = {n: graph.par_preds(n) for n in graph.nodes}
        self._seq_preds = {n: graph.seq_preds(n) for n in graph.nodes}
        for slot in self.SLOTS:
            setattr(self, slot, {n: EMPTY for n in graph.nodes})

    def _pred_family(self, n):
        return self.graph.control_preds(n)

    def update_flow(self, n) -> bool:
        changed = False
        new_in = self._compute_in(n)
        changed |= new_in != self.In[n]
        self.In[n] = new_in
        new_out = self._compute_out(n)
        changed |= new_out != self.Out[n]
        self.Out[n] = new_out
        return changed

    def update_kill(self, n) -> bool:
        changed = False
        new_killin = self._compute_acc_killin(n)
        changed |= new_killin != self.ACCKillin[n]
        self.ACCKillin[n] = new_killin

        base_kill = (new_killin | self.info.kill[n]) - self.info.gen[n]

        new_forkkill = base_kill if n.is_fork else EMPTY
        changed |= new_forkkill != self.ForkKill[n]
        self.ForkKill[n] = new_forkkill

        if n.is_fork:
            new_killout = EMPTY
        elif n.is_join:
            carried = self.ForkKill[n.fork] - self.Out[n]
            new_killout = base_kill | carried
        else:
            new_killout = base_kill
        changed |= new_killout != self.ACCKillout[n]
        self.ACCKillout[n] = new_killout
        return changed

    def _compute_in(self, n):
        flow = union_all(self.Out[p] for p in self._all_preds[n])
        par_kills = union_all(self.ACCKillout[p] for p in self._par_preds[n])
        return flow - par_kills

    def _compute_out(self, n):
        live = (self.In[n] - self.info.kill[n]) - self.info.parallel_kill[n]
        return live | self.info.gen[n]

    def _compute_acc_killin(self, n):
        if n.is_join:
            par = union_all(self.ACCKillout[p] for p in self._par_preds[n])
            seq = intersection_all(self.ACCKillout[p] for p in self._seq_preds[n])
            return par | seq
        preds = self._par_preds[n] + self._seq_preds[n]
        return intersection_all(self.ACCKillout[p] for p in preds)


class ReferenceSynch(ReferenceParallel):
    """§6 (Figure 10) over frozensets, with the optional SynchPass
    ordering filter."""

    SLOTS = ReferenceParallel.SLOTS + ("SynchPass",)

    def __init__(self, graph, info, preserved, filter_synch_pass: bool = True):
        super().__init__(graph, info)
        self.filter_synch_pass = filter_synch_pass
        self._sync_preds = {n: graph.sync_preds(n) for n in graph.nodes}
        self._preserved_sync_preds = {
            n: [p for p in self._sync_preds[n] if p in preserved[n]] for n in graph.nodes
        }
        self._ordered_defs: Dict = {
            n: frozenset(d for d in graph.defs if info.def_node[d] in preserved[n])
            for n in graph.nodes
            if n.is_wait
        }

    def _pred_family(self, n):
        return self.graph.all_preds(n)

    def update_kill(self, n) -> bool:
        new_sp = self._compute_synch_pass(n)
        changed = new_sp != self.SynchPass[n]
        self.SynchPass[n] = new_sp
        return super().update_kill(n) | changed

    def _compute_synch_pass(self, n):
        if n.is_wait:
            passed = union_all(self.Out[p] for p in self._preserved_sync_preds[n])
            if self.filter_synch_pass:
                passed = passed & self._ordered_defs[n]
            return passed
        if n.is_join:
            par = union_all(self.SynchPass[p] for p in self._par_preds[n])
            seq = intersection_all(self.SynchPass[p] for p in self._seq_preds[n])
            return par | seq
        preds = self._par_preds[n] + self._seq_preds[n]
        return intersection_all(self.SynchPass[p] for p in preds)

    def _compute_in(self, n):
        flow = union_all(self.Out[p] for p in self._all_preds[n])
        par_kills = union_all(self.ACCKillout[p] for p in self._par_preds[n])
        sync_kills = intersection_all(self.ACCKillout[p] for p in self._sync_preds[n])
        return (flow - par_kills) - sync_kills

    def _compute_out(self, n):
        occurred = self.info.other_defs[n] & self.SynchPass[n]
        return super()._compute_out(n) - occurred

    def _compute_acc_killin(self, n):
        occurred = self.info.other_defs[n] & self.SynchPass[n]
        return super()._compute_acc_killin(n) | occurred


class ReferenceSequential:
    """§2: ``Out = (In − OtherDefs) ∪ Gen``, ``In = ⋃ Out(control pred)``."""

    SLOTS = ("In", "Out")

    def __init__(self, graph, info):
        self.graph = graph
        self.info = info
        self.In = {n: EMPTY for n in graph.nodes}
        self.Out = {n: EMPTY for n in graph.nodes}

    def _preds(self, n):
        return self.graph.control_preds(n)

    def _transfer(self, n, new_in):
        return (new_in - self.info.other_defs[n]) | self.info.gen[n]

    def update(self, n) -> bool:
        new_in = union_all(self.Out[p] for p in self._preds(n))
        new_out = self._transfer(n, new_in)
        changed = new_in != self.In[n] or new_out != self.Out[n]
        self.In[n] = new_in
        self.Out[n] = new_out
        return changed


class ReferenceConservative(ReferenceSequential):
    """The degradation floor: ``Out = In ∪ Gen`` over every edge kind."""

    def _preds(self, n):
        return self.graph.all_preds(n)

    def _transfer(self, n, new_in):
        return new_in | self.info.gen[n]
