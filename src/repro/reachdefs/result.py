"""Result container for reaching-definitions analyses.

Wraps the per-node fixpoint sets (as plain frozensets of
:class:`~repro.ir.defs.Definition`) together with iteration statistics,
and provides the queries optimization clients need: definitions reaching a
use (ud-chains), definitions of a variable reaching a block, and
paper-style set printing keyed by block name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from ..dataflow.framework import SolveStats
from ..ir.defs import Definition, Use
from ..obs import get_metrics, get_tracer
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .genkill import GenKillInfo
from .preserved import PreservedResult

DefSet = FrozenSet[Definition]
NodeRef = Union[PFGNode, str]
Rows = Dict[PFGNode, DefSet]


def materialize(
    ops,
    nodes: Sequence[PFGNode],
    slots: Mapping[str, Mapping[PFGNode, object]],
    known: Optional[Mapping[str, Mapping[PFGNode, DefSet]]] = None,
) -> Dict[str, Rows]:
    """Decode a solved system's rows into frozensets of definitions.

    ``slots`` maps a slot name to its encoded ``{node: mask}`` rows;
    ``known`` maps a slot name to rows already materialized (the
    incremental engine's seeded clean regions), which pass through
    unchanged.  Each distinct mask is decoded once per call, so rows
    with equal masks, across nodes and slots, share one frozenset.  The
    memo lives only for the call: nothing is kept on the result.

    Runs under a ``materialize`` span; the rows returned and the distinct
    masks among them add to ``reachdefs.materialize.rows`` and
    ``reachdefs.materialize.distinct``.
    """
    decode = ops.to_frozenset
    memo: Dict[object, DefSet] = {}
    out: Dict[str, Rows] = {}
    with get_tracer().span("materialize") as span:
        for name, values in slots.items():
            pre = known.get(name) if known else None
            rows: Rows = {}
            for n in nodes:
                mask = values[n]
                if pre and n in pre:
                    rows[n] = pre[n]
                    memo.setdefault(mask, pre[n])
                    continue
                row = memo.get(mask)
                if row is None:
                    row = memo[mask] = decode(mask)
                rows[n] = row
            out[name] = rows
        n_rows = len(nodes) * len(slots)
        distinct = len(memo)
        span.annotate(rows=n_rows, distinct=distinct)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("reachdefs.materialize.rows", n_rows)
        metrics.inc("reachdefs.materialize.distinct", distinct)
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
    in_sets: Dict[PFGNode, DefSet]
    out_sets: Dict[PFGNode, DefSet]
    acc_killin: Optional[Dict[PFGNode, DefSet]] = None
    acc_killout: Optional[Dict[PFGNode, DefSet]] = None
    fork_kill: Optional[Dict[PFGNode, DefSet]] = None
    synch_pass: Optional[Dict[PFGNode, DefSet]] = None
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
        """Definitions of ``var`` reaching the *start* of the block."""
        return frozenset(d for d in self.In(ref) if d.var == var)

    def reaching_use(self, use: Use) -> DefSet:
        """Definitions reaching a specific use (intra-block defs considered:
        a same-block definition before the use supersedes inflowing ones)."""
        node = self._node(use.site)
        local = node.local_def_before(use.var, use.ordinal)
        if local is not None:
            return frozenset((local,))
        return self.reaching(node, use.var)

    def ud_chains(self) -> Dict[Use, DefSet]:
        """Use-definition chains for every use in the program, equal to
        :meth:`reaching_use` of each use.

        One pass per node: ``In`` is grouped once by the variables the
        node reads, and the body is walked in order so a same-block
        definition shadows the inflowing ones for every later use."""
        chains: Dict[Use, DefSet] = {}
        for node in self.graph.nodes:
            uses = node.uses()
            if not uses:
                continue
            inflow: Dict[str, List[Definition]] = {use.var: [] for use in uses}
            for d in self.in_sets[node]:
                bucket = inflow.get(d.var)
                if bucket is not None:
                    bucket.append(d)
            reaching = {var: frozenset(ds) for var, ds in inflow.items()}
            def_of = {id(d.stmt): d for d in node.defs}
            local: Dict[str, DefSet] = {}
            walked = 0  # statements whose definition is already in ``local``
            for use in uses:
                while walked < use.ordinal:
                    d = def_of.get(id(node.stmts[walked]))
                    if d is not None:
                        local[d.var] = frozenset((d,))
                    walked += 1
                chains[use] = local.get(use.var) or reaching[use.var]
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
