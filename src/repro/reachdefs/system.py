"""The row store the reaching-definitions systems share.

The §2, §5 and §6 systems and the conservative floor are one family of
equations over named rows — ``In``/``Out`` everywhere, plus
``ACCKillin``/``ACCKillout``/``ForkKill`` in §5 and ``SynchPass`` in §6.
:class:`RDSystem` owns those rows and everything that reads or writes
them as a whole: set-up, resets, snapshots, the stabilized solver's
``state_key``, provenance and the result.  Each system keeps only the
plan it compiles in ``__init__``, its updates and ``dependents``.

Rows are ``{node: encoded set}`` dicts in :attr:`RDSystem.rows`, keyed by
slot name in :attr:`RDSystem.slots` order; each is also an attribute of
the system (``self.In``, ``self.ACCKillout``, …), which the update hot
paths read.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..dataflow.bitset import IntBitsetBackend, make_backend
from ..dataflow.framework import EquationSystem, SolveStats
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo, compute_genkill
from .result import EncodedRows, ReachingDefsResult, materialize

#: The :class:`ReachingDefsResult` field each slot's rows fill.
RESULT_FIELDS: Dict[str, str] = {
    "In": "in_sets",
    "Out": "out_sets",
    "ACCKillin": "acc_killin",
    "ACCKillout": "acc_killout",
    "ForkKill": "fork_kill",
    "SynchPass": "synch_pass",
}


class RDSystem(EquationSystem[PFGNode]):
    """Rows by slot name over one graph's definitions, in one backend."""

    #: The rows, in snapshot and ``state_key`` order.
    slots: Tuple[str, ...] = ("In", "Out")

    #: ``ReachingDefsResult.system`` and the provenance system name.
    system_name = ""

    #: Whether the In equation reads synchronization edges (§6 sets it):
    #: ``pred(n)`` then includes sync predecessors, and In subtracts
    #: ⋂_{sync_pred} ACCKillout.  Provenance flow edges follow the same
    #: family.
    sync_edges = False

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
        #: U, the encoded universe.  Every local set x is a subset of U,
        #: so the complement mask U − x is ``U ^ x``.
        self._universe = ops.from_defs(graph.defs)
        self.rows: Dict[str, Dict[PFGNode, object]] = {}
        for slot in self.slots:
            self.rows[slot] = {}
            setattr(self, slot, self.rows[slot])

    def _local(self, rows: EncodedRows) -> Mapping[PFGNode, object]:
        """A local-set table of :attr:`info` (``info.gen``, ``info.kill``,
        …) in this system's backend: its int masks, or on the ``set``
        backend the table itself, whose rows the info decodes."""
        return rows.masks if isinstance(self.ops, IntBitsetBackend) else rows

    def nodes(self):
        return self.graph.document_order()

    def initialize(self) -> None:
        self._reset(self.slots, self.graph.nodes)

    def _reset(self, slots: Iterable[str], nodes: Iterable[PFGNode]) -> None:
        """Set the ``slots`` rows of ``nodes`` to ∅, leaving every other
        row intact."""
        empty = dict.fromkeys(nodes, self._empty)
        for slot in slots:
            self.rows[slot].update(empty)

    @classmethod
    def rows_of(cls, result: ReachingDefsResult) -> Dict[str, object]:
        """``result``'s decoded rows by this system's slot names."""
        return {slot: getattr(result, RESULT_FIELDS[slot]) for slot in cls.slots}

    # -- whole-state views ----------------------------------------------------

    def snapshot(self, nodes=None):
        """Frozenset state per slot, keyed by node name; ``nodes``
        restricts to a subset — region-scoped convergence checks must not
        pay for materializing the whole graph every round."""
        decode = self.ops.to_frozenset
        if nodes is None:
            nodes = self.graph.nodes
        return {
            slot: {n.name: decode(rows[n]) for n in nodes} for slot, rows in self.rows.items()
        }

    def state_key(self, nodes=None) -> tuple:
        """The encoded rows of every slot as one hashable tuple — the
        stabilized solver's convergence and cycle check.  Encoded
        equality is exact (int bitsets over one universe and frozensets
        are both canonical), so two states have equal keys iff they have
        equal snapshots, and nothing is decoded.  ``nodes`` restricts the
        key to a subset, as for :meth:`snapshot`."""
        if nodes is None:
            nodes = self.graph.nodes
        return tuple(rows[n] for rows in self.rows.values() for n in nodes)

    # -- provenance (opt-in; see repro.provenance) --------------------------

    def record_justifications(self):
        """Derive the justification graph from the converged sets (the
        solver's post-convergence hook; see
        :func:`repro.dataflow.solver._finalize_provenance`)."""
        from ..provenance.record import build_justifications

        self._provenance = build_justifications(
            self.graph,
            self.In,
            self.Out,
            self.info.gen.masks,
            include_sync=self.sync_edges,
            system=self.system_name,
        )
        return self._provenance

    # -- results ---------------------------------------------------------------

    def _result(self, stats: SolveStats, known=None, **fields) -> ReachingDefsResult:
        """The result keeps the rows encoded, decoded as they are read.
        ``known`` maps slot name → {node: frozenset} for rows whose final
        values are already decoded (the incremental engine's seeded clean
        regions); see :func:`~repro.reachdefs.result.materialize`."""
        rows = materialize(self.ops, self.rows, known)
        for slot, values in rows.items():
            fields[RESULT_FIELDS[slot]] = values
        return ReachingDefsResult(
            graph=self.graph,
            info=self.info,
            stats=stats,
            system=self.system_name,
            provenance=self._provenance,
            **fields,
        )
