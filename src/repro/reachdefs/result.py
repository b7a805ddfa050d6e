"""Result container for reaching-definitions analyses.

Wraps the per-node fixpoint sets together with iteration statistics, and
provides the queries optimization clients need: definitions reaching a
use (ud-chains), definitions of a variable reaching a block, and
paper-style set printing keyed by block name.

The solved rows stay encoded (:class:`EncodedRows`): a row is decoded
into a frozenset of :class:`~repro.ir.defs.Definition` when it is first
read, and the ud-chain queries decode only ``In(n) & defs(var)`` for the
variables a node reads.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from ..dataflow.framework import SolveStats
from ..ir.defs import Definition, Use
from ..lang import ast
from ..obs import get_metrics, get_tracer
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo
from .preserved import PreservedResult

DefSet = FrozenSet[Definition]
NodeRef = Union[PFGNode, str]
Rows = Mapping[PFGNode, DefSet]


class _Decoder:
    """What the slots of one result share: the backend, the memo from a
    mask to its decoded set (so equal masks, across nodes and slots, give
    one frozenset object) and the per-variable definition masks the
    ud-chain queries intersect ``In`` rows with.  Each mask decoded adds
    to ``reachdefs.materialize.distinct``."""

    __slots__ = ("ops", "memo", "var_masks")

    def __init__(self, ops):
        self.ops = ops
        self.memo: Dict[object, DefSet] = {}
        self.var_masks: Dict[str, object] = {}

    def decode(self, mask) -> DefSet:
        row = self.memo.get(mask)
        if row is None:
            row = self.memo[mask] = self.ops.to_frozenset(mask)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("reachdefs.materialize.distinct")
        return row


class EncodedRows(Mapping[PFGNode, DefSet]):
    """One slot of a solved system: ``{node: mask}`` rows, each decoded to
    a frozenset of definitions on its first read and kept.

    Holds the slot's mask dict and the result's shared :class:`_Decoder`,
    not the equation system.  The first read of a row adds to
    ``reachdefs.materialize.rows``.
    """

    __slots__ = ("masks", "decoder", "_rows")

    def __init__(self, masks: Mapping[PFGNode, object], decoder: _Decoder):
        self.masks = masks
        self.decoder = decoder
        self._rows: Dict[PFGNode, DefSet] = {}

    def __getitem__(self, node: PFGNode) -> DefSet:
        row = self._rows.get(node)
        if row is None:
            row = self._rows[node] = self.decoder.decode(self.masks[node])
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("reachdefs.materialize.rows")
        return row

    def __contains__(self, node: object) -> bool:
        return node in self.masks

    def __iter__(self) -> Iterator[PFGNode]:
        return iter(self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __repr__(self) -> str:
        return repr(dict(self))


def materialize(
    ops,
    slots: Mapping[str, Mapping[PFGNode, object]],
    known: Optional[Mapping[str, Mapping[PFGNode, DefSet]]] = None,
) -> Dict[str, EncodedRows]:
    """Wrap a solved system's rows, by slot name, as :class:`EncodedRows`.

    ``slots`` maps a slot name to its encoded ``{node: mask}`` rows, which
    the result keeps as they are: the system must not be solved again.
    ``known`` maps a slot name to rows already decoded (the incremental
    engine's seeded clean regions); they are read back unchanged, and a
    row whose mask equals a known row's is that row.  Nothing is decoded
    here.  Runs under a ``materialize`` span annotated with the rows
    wrapped and the known rows among them.
    """
    decoder = _Decoder(ops)
    out: Dict[str, EncodedRows] = {}
    n_known = 0
    with get_tracer().span("materialize") as span:
        for name, values in slots.items():
            rows = out[name] = EncodedRows(values, decoder)
            pre = known.get(name) if known else None
            if pre:
                rows._rows.update(pre)
                for n, row in pre.items():
                    decoder.memo.setdefault(values[n], row)
                n_known += len(pre)
        span.annotate(rows=sum(len(values) for values in slots.values()), known=n_known)
    return out


@dataclass
class ReachingDefsResult:
    """Fixpoint of one of the paper's equation systems.

    ``acc_killin``/``acc_killout``/``fork_kill`` are ``None`` for the
    sequential system; ``synch_pass``/``preserved`` are ``None`` unless the
    synchronized system ran.
    """

    graph: ParallelFlowGraph
    info: GenKillInfo
    in_sets: Rows
    out_sets: Rows
    acc_killin: Optional[Rows] = None
    acc_killout: Optional[Rows] = None
    fork_kill: Optional[Rows] = None
    synch_pass: Optional[Rows] = None
    preserved: Optional[PreservedResult] = None
    stats: SolveStats = field(default_factory=SolveStats)
    system: str = ""
    #: Justification graph (:class:`repro.provenance.JustificationGraph`)
    #: when the solve ran with ``record_provenance=True``; ``None``
    #: otherwise (build lazily via :func:`repro.provenance.ensure_provenance`).
    #: Typed ``object`` to keep this module import-cycle-free.
    provenance: Optional[object] = None

    # -- node resolution -----------------------------------------------------

    def _node(self, ref: NodeRef) -> PFGNode:
        return self.graph.node(ref) if isinstance(ref, str) else ref

    # -- set accessors (paper names) ----------------------------------------

    def In(self, ref: NodeRef) -> DefSet:
        return self.in_sets[self._node(ref)]

    def Out(self, ref: NodeRef) -> DefSet:
        return self.out_sets[self._node(ref)]

    def Gen(self, ref: NodeRef) -> DefSet:
        return self.info.gen[self._node(ref)]

    def Kill(self, ref: NodeRef) -> DefSet:
        return self.info.kill[self._node(ref)]

    def ParallelKill(self, ref: NodeRef) -> DefSet:
        return self.info.parallel_kill[self._node(ref)]

    def OtherDefs(self, ref: NodeRef) -> DefSet:
        return self.info.other_defs[self._node(ref)]

    def ACCKillin(self, ref: NodeRef) -> DefSet:
        assert self.acc_killin is not None, f"{self.system} computes no ACCKill sets"
        return self.acc_killin[self._node(ref)]

    def ACCKillout(self, ref: NodeRef) -> DefSet:
        assert self.acc_killout is not None, f"{self.system} computes no ACCKill sets"
        return self.acc_killout[self._node(ref)]

    def ForkKill(self, ref: NodeRef) -> DefSet:
        assert self.fork_kill is not None, f"{self.system} computes no ForkKill sets"
        return self.fork_kill[self._node(ref)]

    def SynchPass(self, ref: NodeRef) -> DefSet:
        assert self.synch_pass is not None, f"{self.system} computes no SynchPass sets"
        return self.synch_pass[self._node(ref)]

    def Preserved(self, ref: NodeRef) -> FrozenSet[PFGNode]:
        assert self.preserved is not None, f"{self.system} computes no Preserved sets"
        return self.preserved[self._node(ref)]

    # -- name-based views (golden tests) ---------------------------------------

    def in_names(self, ref: NodeRef) -> FrozenSet[str]:
        return frozenset(d.name for d in self.In(ref))

    def out_names(self, ref: NodeRef) -> FrozenSet[str]:
        return frozenset(d.name for d in self.Out(ref))

    def set_names(self, which: str, ref: NodeRef) -> FrozenSet[str]:
        """Generic name view: ``which`` is one of In/Out/Gen/Kill/
        ParallelKill/ACCKillin/ACCKillout/ForkKill/SynchPass."""
        return frozenset(d.name for d in getattr(self, which)(ref))

    # -- client queries ------------------------------------------------------------

    def reaching(self, ref: NodeRef, var: str) -> DefSet:
        """Definitions of ``var`` reaching the *start* of the block:
        ``In & defs(var)``, decoded from one mask intersection when the
        rows are encoded (``defs(var)`` is built once per result)."""
        node = self._node(ref)
        rows = self.in_sets
        if not isinstance(rows, EncodedRows):
            return frozenset(d for d in rows[node] if d.var == var)
        decoder = rows.decoder
        defs = decoder.var_masks.get(var)
        if defs is None:
            defs = decoder.var_masks[var] = decoder.ops.from_defs(self.graph.defs.of_var(var))
        return decoder.decode(rows.masks[node] & defs)

    def reaching_use(self, use: Use) -> DefSet:
        """Definitions reaching a specific use (intra-block defs considered:
        a same-block definition before the use supersedes inflowing ones)."""
        node = self._node(use.site)
        local = node.local_def_before(use.var, use.ordinal)
        if local is not None:
            return frozenset((local,))
        return self.reaching(node, use.var)

    def in_out(self, ref: NodeRef) -> DefSet:
        """``In ∪ Out`` of the block, decoded from one mask when both
        slots are encoded."""
        node = self._node(ref)
        ins, outs = self.in_sets, self.out_sets
        if isinstance(ins, EncodedRows) and isinstance(outs, EncodedRows):
            return ins.decoder.decode(ins.masks[node] | outs.masks[node])
        return ins[node] | outs[node]

    def ud_chains(self) -> Dict[Use, DefSet]:
        """Use-definition chains for every use in the program, equal to
        :meth:`reaching_use` of each use.

        One pass per node over its read list (:attr:`PFGNode.reads`), in
        statement order, so a same-block definition shadows the inflowing
        ones for every later use.  The inflowing definitions of a
        variable are :meth:`reaching`, read once per node and variable."""
        chains: Dict[Use, DefSet] = {}
        for node in self.graph.nodes:
            reads = node.reads
            if not any(reads):
                continue
            site, stmts, defs = node.name, node.stmts, iter(node.defs)
            reaching: Dict[str, DefSet] = {}
            local: Dict[str, DefSet] = {}
            for ordinal, names in enumerate(reads):
                for var in names:
                    chain = local.get(var) or reaching.get(var)
                    if chain is None:
                        chain = reaching[var] = self.reaching(node, var)
                    chains[Use(var, site, ordinal)] = chain
                if ordinal < len(stmts) and isinstance(stmts[ordinal], ast.Assign):
                    d = next(defs)
                    local[d.var] = frozenset((d,))
        return chains

    def du_chains(
        self, ud: Optional[Dict[Use, DefSet]] = None
    ) -> Dict[Definition, Tuple[Use, ...]]:
        """Definition-use chains: the inverse of ``ud`` (computed by
        :meth:`ud_chains` when not given)."""
        if ud is None:
            ud = self.ud_chains()
        out: Dict[Definition, List[Use]] = {d: [] for d in self.graph.defs}
        for use, defs in ud.items():
            for d in defs:
                out[d].append(use)
        return {d: tuple(uses) for d, uses in out.items()}

    # -- reporting -------------------------------------------------------------------

    def row(self, ref: NodeRef) -> Dict[str, FrozenSet[str]]:
        """All sets of one block, by paper column name (for table output)."""
        node = self._node(ref)
        row: Dict[str, FrozenSet[str]] = {
            "Gen": self.set_names("Gen", node),
            "Kill": self.set_names("Kill", node),
            "In": self.set_names("In", node),
            "Out": self.set_names("Out", node),
        }
        if self.acc_killin is not None:
            row["ParKill"] = self.set_names("ParallelKill", node)
            row["ACCKillin"] = self.set_names("ACCKillin", node)
            row["ACCKillout"] = self.set_names("ACCKillout", node)
            row["ForkKill"] = self.set_names("ForkKill", node)
        if self.synch_pass is not None:
            row["SynchPass"] = self.set_names("SynchPass", node)
        return row
