"""Result container for reaching-definitions analyses.

Wraps the per-node fixpoint sets together with iteration statistics, and
provides the queries optimization clients need: definitions reaching a
use (ud-chains), definitions of a variable reaching a block, and
paper-style set printing keyed by block name.

The solved rows stay encoded (:class:`EncodedRows`): a row is decoded
into a frozenset of :class:`~repro.ir.defs.Definition` when it is first
read.  The ud-chain queries work on int masks over definition indices,
``In(n) & defs(var)``, whatever the backend, and decode a chain only
when it is read.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, Iterator, List, Optional, Tuple, Union

from ..dataflow.bitset import IntBitsetBackend, bit_indices
from ..dataflow.framework import SolveStats
from ..ir.defs import Definition, Use
from ..lang import ast
from ..obs import get_metrics, get_tracer
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode

if TYPE_CHECKING:
    from .genkill import GenKillInfo
    from .preserved import PreservedResult

DefSet = FrozenSet[Definition]
NodeRef = Union[PFGNode, str]
Rows = Mapping[PFGNode, DefSet]


class _Decoder:
    """What the slots of one result share: the backend, the memo from a
    mask to its decoded set (so equal masks, across nodes and slots, give
    one frozenset object) and the per-variable definition masks the
    ud-chain queries intersect ``In`` rows with.  ``bits`` decodes the
    int masks of those queries (it is ``ops`` on the bitset backend);
    ``var_masks`` are ints.  Each mask decoded adds to
    ``reachdefs.materialize.distinct``."""

    __slots__ = ("ops", "bits", "memo", "var_masks")

    def __init__(self, ops):
        self.ops = ops
        self.bits = ops if isinstance(ops, IntBitsetBackend) else IntBitsetBackend(ops.universe)
        self.memo: Dict[object, DefSet] = {}
        self.var_masks: Dict[str, int] = {}

    def decode(self, mask) -> DefSet:
        row = self.memo.get(mask)
        if row is None:
            ops = self.bits if isinstance(mask, int) else self.ops
            row = self.memo[mask] = ops.to_frozenset(mask)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("reachdefs.materialize.distinct")
        return row

    def to_bits(self, row) -> int:
        """``row`` (an encoded row or a frozenset of definitions) as an
        int mask over definition indices."""
        return row if isinstance(row, int) else self.bits.from_defs(row)


class IndexDecoder:
    """Decodes an int mask over the indices of ``items`` to the frozenset
    of those items: the decoder of node-set rows over node ids
    (Preserved, MustDone) and of the local sets over definition indices."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Hashable]):
        self.items = items

    def decode(self, mask: int) -> FrozenSet:
        items = self.items
        return frozenset(items[i] for i in bit_indices(mask))


class EncodedRows(Mapping[Hashable, DefSet]):
    """Masks by key (a slot's ``{node: mask}`` rows, ud-chains by use, or
    node sets by node), each decoded on its first read and kept.

    Holds the mask dict and a decoder (the result's shared
    :class:`_Decoder`, or an :class:`IndexDecoder`), not the equation
    system.  The first read of a key adds to ``counter``
    (``reachdefs.materialize.rows`` for a slot).
    """

    __slots__ = ("masks", "decoder", "counter", "_rows")

    def __init__(
        self,
        masks: Mapping[Hashable, object],
        decoder: _Decoder,
        counter: str = "reachdefs.materialize.rows",
    ):
        self.masks = masks
        self.decoder = decoder
        self.counter = counter
        self._rows: Dict[Hashable, DefSet] = {}

    def __getitem__(self, key: Hashable) -> DefSet:
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = self.decoder.decode(self.masks[key])
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc(self.counter)
        return row

    def __contains__(self, key: object) -> bool:
        return key in self.masks

    def __iter__(self) -> Iterator[Hashable]:
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
    #: Decodes the client queries' int masks: the encoded rows' decoder,
    #: or one over the definition table when the rows are plain dicts (a
    #: result rebuilt with ``dataclasses.replace``, as fault injection
    #: does).
    _decoder: _Decoder = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = self.in_sets
        if isinstance(rows, EncodedRows):
            self._decoder = rows.decoder
        else:
            self._decoder = _Decoder(IntBitsetBackend(self.graph.defs))

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

    # -- client queries --------------------------------------------------------------
    #
    # Chains are int masks over definition indices on either backend: an
    # encoded bitset row is one already, and a frozenset row (the ``set``
    # backend, or a plain dict row) is turned into one when read.

    def _bits(self, rows: Rows, node: PFGNode) -> int:
        """``rows[node]`` as an int mask, read off the encoded row when
        ``rows`` is encoded."""
        row = rows.masks[node] if isinstance(rows, EncodedRows) else rows[node]
        return self._decoder.to_bits(row)

    def var_mask(self, var: str) -> int:
        """The mask of every definition of ``var``, built once per result."""
        masks = self._decoder.var_masks
        mask = masks.get(var)
        if mask is None:
            mask = masks[var] = self._decoder.bits.from_defs(self.graph.defs.of_var(var))
        return mask

    def decode(self, mask: int) -> DefSet:
        """The definitions of an int mask, through the result's memo (equal
        masks give one frozenset)."""
        return self._decoder.decode(mask)

    def reaching_mask(self, ref: NodeRef, var: str) -> int:
        """``In & defs(var)`` of the block, as a mask."""
        return self._bits(self.in_sets, self._node(ref)) & self.var_mask(var)

    def reaching(self, ref: NodeRef, var: str) -> DefSet:
        """Definitions of ``var`` reaching the *start* of the block."""
        return self.decode(self.reaching_mask(ref, var))

    def use_mask(self, use: Use) -> int:
        """:meth:`reaching_use` as a mask."""
        node = self._node(use.site)
        local = node.local_def_before(use.var, use.ordinal)
        if local is not None:
            return 1 << local.index
        return self.reaching_mask(node, use.var)

    def reaching_use(self, use: Use) -> DefSet:
        """Definitions reaching a specific use (intra-block defs considered:
        a same-block definition before the use supersedes inflowing ones)."""
        return self.decode(self.use_mask(use))

    def in_out_mask(self, ref: NodeRef) -> int:
        """``In ∪ Out`` of the block, as a mask."""
        node = self._node(ref)
        return self._bits(self.in_sets, node) | self._bits(self.out_sets, node)

    def in_out(self, ref: NodeRef) -> DefSet:
        """``In ∪ Out`` of the block."""
        return self.decode(self.in_out_mask(ref))

    def chain_masks(self) -> Tuple[Dict[Use, int], List[Dict[str, int]]]:
        """Every use's ud-chain as a mask, and each definition's
        right-hand-side reads.

        Returns ``(masks, rhs)``: ``masks[use]`` equals :meth:`use_mask`
        for every use in the program, in node and statement order, and
        ``rhs[d.index]`` maps each variable definition ``d`` reads to
        that read's chain mask.  One pass per node over its read list
        (:attr:`PFGNode.reads`), in statement order, so a same-block
        definition's bit shadows ``In(n) & defs(var)`` for every later
        use; ``In(n)`` is read once per node.  Nothing is decoded."""
        bits, in_sets, var_mask = self._bits, self.in_sets, self.var_mask
        masks: Dict[Use, int] = {}
        # a definition of a node that reads nothing keeps the shared {}
        rhs: List[Dict[str, int]] = [{}] * len(self.graph.defs)
        for node in self.graph.nodes:
            reads = node.reads
            if not any(reads):
                continue
            site, stmts, defs = node.name, node.stmts, iter(node.defs)
            inflow = bits(in_sets, node)
            local: Dict[str, int] = {}
            for ordinal, names in enumerate(reads):
                row: Dict[str, int] = {}
                for var in names:
                    mask = local.get(var)
                    if mask is None:
                        mask = inflow & var_mask(var)
                    row[var] = masks[Use(var, site, ordinal)] = mask
                if ordinal < len(stmts) and isinstance(stmts[ordinal], ast.Assign):
                    d = next(defs)
                    rhs[d.index] = row
                    local[d.var] = 1 << d.index
        return masks, rhs

    def ud_chains(self, masks: Optional[Mapping[Use, int]] = None) -> Mapping[Use, DefSet]:
        """Use-definition chains for every use in the program, equal to
        :meth:`reaching_use` of each use: the chain masks (``masks``, or
        :meth:`chain_masks` when not given) as a read-only mapping that
        decodes a chain on its first read.  Each first read adds to
        ``client.udchains.decoded``."""
        if masks is None:
            masks = self.chain_masks()[0]
        return EncodedRows(masks, self._decoder, "client.udchains.decoded")

    def du_chains(
        self, ud: Optional[Mapping[Use, DefSet]] = None
    ) -> Dict[Definition, Tuple[Use, ...]]:
        """Definition-use chains: the inverse of ``ud`` (:meth:`ud_chains`
        when not given), walked over the bits of each chain's mask, so a
        chain :meth:`ud_chains` built is not decoded."""
        if ud is None:
            ud = self.ud_chains()
        if isinstance(ud, EncodedRows):
            masks = ud.masks
        else:
            masks = {use: self._decoder.to_bits(chain) for use, chain in ud.items()}
        defs = self.graph.defs
        uses: List[List[Use]] = [[] for _ in range(len(defs))]
        for use, mask in masks.items():
            for i in bit_indices(mask):
                uses[i].append(use)
        return {d: tuple(uses[d.index]) for d in defs}

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
