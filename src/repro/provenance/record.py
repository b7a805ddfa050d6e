"""Justification graphs: *why* does a definition reach a node?

A converged reaching-definitions fixpoint says **that** ``d ∈ In(n)``; this
module records **why**.  For every fact — a ``(slot, node, definition)``
triple with slot ``In`` or ``Out`` — we store the one justification that
first establishes it:

``gen``
    Root of every chain: ``d ∈ Gen(n)`` puts ``d`` in ``Out(n)`` at its
    birth statement.

``flow``
    ``d ∈ Out(p)`` and a PFG edge ``p → n`` whose kind the system's ``In``
    equation reads carries it into ``In(n)``.  Synchronization edges
    participate only for the §6 system (``include_sync=True``); the edge
    (and, for sync edges, the post/wait events crossed) is recorded.

``survive``
    ``d ∈ In(n)`` and ``d ∉ Kill(n) ∪ ParallelKill(n)`` (nor, in §6, in
    the ``OtherDefs ∩ SynchPass`` ordering kill) leaves ``d ∈ Out(n)`` —
    the definition survived the block, including survival of a
    ``ParallelKill`` at a join or of the SynchPass feedback at a ``wait``.

``unsupported``
    The fact is in the fixpoint but no chain from a birth site derives it.
    Any fixpoint satisfies the *local* equations, so such facts only arise
    as self-supporting cycles in **over-approximate** fixpoints that
    chaotic iteration (round-robin / worklist) can settle into on the
    non-monotone synchronized system.  The deterministic engines
    (stabilized, scc) compute least-resolution fixpoints in which every
    fact is derivable (asserted by the ``provenance-chains`` fuzz oracle).

The graph is **derived from the converged fixpoint**, not recorded during
iteration: document-order propagation passes from the gen roots (nodes
in document order, predecessor edges in insertion order, definitions by
index) assign each fact the derivation that reaches it first in program
order, deterministically.  Because the input is only ``(graph, In, Out,
Gen)``, any two solvers that converge to the same fixpoint — the
stabilized and SCC engines by design — yield **identical** justification
graphs, and recording costs a couple of linear passes over the solution
instead of a per-iteration tax (the constant-factor overlay bounded by
``benchmarks/run_provenance.py``).

Representation note: fact counts grow with the *density* of the fixpoint
(Σ|In| + Σ|Out|, quadratic on define-heavy straightline code), so the
builder works level-synchronously per node — not fact-at-a-time — on
definition-index bit masks (bit ``i`` is the definition with index
``i``), and the graph stores each node's facts as the batches the
builder derived them in (a mask and one shared entry), building a node's
per-definition dict on first access and :class:`Fact`/
:class:`Justification` objects only on access (chains are short; the
store is not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

from ..ir.defs import Definition
from ..pfg.edges import CONTROL_KINDS, EdgeKind
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode

DefSet = FrozenSet[Definition]
#: A fixpoint row: a frozenset, or the definition-index bit mask of a
#: bitset system (bit ``i`` is the definition with index ``i``).
Row = Union[DefSet, int]

__all__ = [
    "Fact",
    "Justification",
    "JustificationGraph",
    "build_justifications",
    "ensure_provenance",
]


@dataclass(frozen=True)
class Fact:
    """One element of the fixpoint: ``defn ∈ slot(node)``."""

    slot: str  # "In" | "Out"
    node: PFGNode
    defn: Definition

    @property
    def key(self) -> str:
        """Stable string form (``Out:4:x4``) used for cross-solver
        comparison and JSON export."""
        return f"{self.slot}:{self.node.name}:{self.defn.name}"

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class Justification:
    """Why ``fact`` holds: its kind, the fact it follows from, and (for
    flows) the PFG edge crossed."""

    kind: str  # "gen" | "flow" | "survive" | "unsupported"
    fact: Fact
    source: Optional[Fact] = None
    #: For ``flow``: ``(src_name, dst_name, edge_kind)``.
    edge: Optional[Tuple[str, str, str]] = None
    note: str = ""


#: A fact's justification: ``(kind, source node | None, edge | None,
#: note)``.  A justification's source always concerns the *same
#: definition* (flow comes from ``Out`` of the source node, survive from
#: ``In`` of the fact's own node), so only the source node is stored and
#: one entry tuple is shared by every definition of a batch.
_Entry = Tuple[str, Optional[PFGNode], Optional[Tuple[str, str, str]], str]
#: Definitions justified together, as an index bit mask, and their
#: shared entry.
_Batch = Tuple[int, _Entry]
_Key = Tuple[str, PFGNode]

#: Slot the source fact lives in, by justification kind.
_SOURCE_SLOT = {"flow": "Out", "survive": "In"}


class JustificationGraph:
    """Every fact of one converged fixpoint, each with its justification.

    The store maps ``(slot, node)`` to the batches the builder derived
    that node's facts in, until the first access turns them into a
    ``{defn: entry}`` dict (definitions by index within a batch, batches
    in derivation order).  Recording therefore costs mask operations,
    not a dict entry per fact; :class:`Fact`/:class:`Justification` objects
    are materialized on access, so holding a dense fixpoint's graph costs
    one shared-tuple dict entry per fact rather than two dataclass
    instances.
    """

    __slots__ = ("system", "_defs", "_store")

    def __init__(self, system: str = "", defs: Sequence[Definition] = ()) -> None:
        self.system = system
        #: definition by index: decodes the batch masks
        self._defs = defs
        self._store: Dict[_Key, Union[List[_Batch], Dict[Definition, _Entry]]] = {}

    def __len__(self) -> int:
        return sum(
            len(value) if isinstance(value, dict) else sum(mask.bit_count() for mask, _ in value)
            for value in self._store.values()
        )

    def _bucket(self, key: _Key) -> Dict[Definition, _Entry]:
        """The ``{defn: entry}`` dict of one ``(slot, node)``."""
        value = self._store[key]
        if isinstance(value, dict):
            return value
        bucket: Dict[Definition, _Entry] = {}
        defs = self._defs
        for mask, entry in value:
            while mask:  # lowest index first
                low = mask & -mask
                bucket[defs[low.bit_length() - 1]] = entry
                mask ^= low
        self._store[key] = bucket
        return bucket

    def _buckets(self) -> Iterator[Tuple[_Key, Dict[Definition, _Entry]]]:
        for key in self._store:
            yield key, self._bucket(key)

    def _materialize(self, slot: str, node: PFGNode, defn: Definition) -> Justification:
        kind, src_node, edge, note = self._bucket((slot, node))[defn]
        src_slot = _SOURCE_SLOT.get(kind)
        return Justification(
            kind=kind,
            fact=Fact(slot, node, defn),
            source=Fact(src_slot, src_node, defn) if src_slot is not None else None,
            edge=edge,
            note=note,
        )

    def justification(self, slot: str, node: PFGNode, defn: Definition) -> Justification:
        if not self.has_fact(slot, node, defn):
            raise KeyError(
                f"no such fact in the fixpoint: {slot}:{node.name}:{defn.name}"
            )
        return self._materialize(slot, node, defn)

    def has_fact(self, slot: str, node: PFGNode, defn: Definition) -> bool:
        return (slot, node) in self._store and defn in self._bucket((slot, node))

    def items(self) -> Iterator[Tuple[Fact, Justification]]:
        """Lazy ``(fact, justification)`` pairs, grouped by (slot, node)."""
        for (slot, node), bucket in self._buckets():
            for defn in bucket:
                yield Fact(slot, node, defn), self._materialize(slot, node, defn)

    def chain(self, slot: str, node: PFGNode, defn: Definition) -> List[Justification]:
        """The derivation of one fact, root (``gen``) first.

        An ``unsupported`` fact yields a single-element chain.
        """
        if not self.has_fact(slot, node, defn):
            raise KeyError(
                f"no such fact in the fixpoint: {slot}:{node.name}:{defn.name}"
            )
        steps: List[Justification] = []
        seen = set()
        at: Optional[Tuple[str, PFGNode]] = (slot, node)
        while at is not None:
            if at in seen:  # pragma: no cover - derivations are acyclic
                raise RuntimeError(
                    f"justification cycle at {at[0]}:{at[1].name}:{defn.name}"
                )
            seen.add(at)
            steps.append(self._materialize(at[0], at[1], defn))
            kind, src_node, _edge, _note = self._bucket(at)[defn]
            src_slot = _SOURCE_SLOT.get(kind)
            at = (src_slot, src_node) if src_slot is not None else None
        steps.reverse()
        return steps

    def counts(self) -> Dict[str, int]:
        """Facts per justification kind (sorted; for stats and benches)."""
        out: Dict[str, int] = {}
        for _, bucket in self._buckets():
            for entry in bucket.values():
                kind = entry[0]
                out[kind] = out.get(kind, 0) + 1
        return dict(sorted(out.items()))

    def unsupported(self) -> List[Fact]:
        """Facts with no derivation, in deterministic (node, def) order."""
        out = [
            Fact(slot, node, d)
            for (slot, node), bucket in self._buckets()
            for d, entry in bucket.items()
            if entry[0] == "unsupported"
        ]
        out.sort(key=lambda f: (f.node.id, f.slot, f.defn.index))
        return out

    def canonical(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready, solver-comparable view: fact key → {kind, source,
        edge}.  Two solvers at the same fixpoint produce equal dicts."""
        out: Dict[str, Dict[str, object]] = {}
        for (slot, node), bucket in self._buckets():
            prefix = f"{slot}:{node.name}:"
            for d, (kind, src_node, edge, _note) in bucket.items():
                src_slot = _SOURCE_SLOT.get(kind)
                out[prefix + d.name] = {
                    "kind": kind,
                    "source": (
                        f"{src_slot}:{src_node.name}:{d.name}"
                        if src_slot is not None
                        else None
                    ),
                    "edge": list(edge) if edge is not None else None,
                }
        return dict(sorted(out.items()))


def _flow_note(src: PFGNode, dst: PFGNode, kind: EdgeKind) -> str:
    if kind is EdgeKind.SYNC:
        return f"post({src.post_event}) → wait({dst.wait_event})"
    if kind is EdgeKind.PAR:
        if src.is_fork:
            return "into a parallel section"
        if dst.is_join:
            return "out of a parallel section"
    return ""


def _survive_note(n: PFGNode) -> str:
    if n.is_join:
        return "survives the join (not accumulator-killed)"
    if n.is_wait:
        return f"survives wait({n.wait_event})"
    return ""


def build_justifications(
    graph: ParallelFlowGraph,
    in_sets: Dict[PFGNode, Row],
    out_sets: Dict[PFGNode, Row],
    gen: Dict[PFGNode, Row],
    include_sync: bool = False,
    system: str = "",
) -> JustificationGraph:
    """Derive the justification graph of a converged fixpoint.

    ``in_sets``/``out_sets``/``gen`` rows are frozensets of definitions or
    definition-index bit masks (a bitset system's own rows and the local
    sets' masks, so recording needs no decode).

    ``include_sync`` widens the flow edges to synchronization edges — set
    it exactly when the system's ``In`` equation reads sync predecessors
    (the §6 synchronized system).  Deterministic: document-order passes
    over the graph, predecessors in edge insertion order, definitions by
    index, repeated until nothing new derives (extra passes only feed
    back edges), so every fact gets the derivation that reaches it first
    in program order and ties break identically on every run and for
    every solver at this fixpoint.

    The propagation works a node's whole wanted *def-set* at a time with
    mask operations (facts scale with Σ|In|+Σ|Out|, quadratic on
    define-heavy code) — this is what keeps the on-cost within the 2×
    gate of ``benchmarks/run_provenance.py``.
    """
    kinds = frozenset(EdgeKind) if include_sync else frozenset(CONTROL_KINDS)
    kind_str = {k: str(k) for k in EdgeKind}
    prov = JustificationGraph(system=system, defs=graph.defs)
    nodes = list(graph.document_order())
    in_batches: Dict[PFGNode, List[_Batch]] = {n: [] for n in nodes}
    out_batches: Dict[PFGNode, List[_Batch]] = {n: [] for n in nodes}
    for n in nodes:  # document-order grouping for items()
        prov._store[("In", n)] = in_batches[n]
        prov._store[("Out", n)] = out_batches[n]
    edges_in = {
        m: [(p, kind) for p, kind in graph.in_edges(m) if kind in kinds]
        for m in nodes
    }
    masks: Dict[DefSet, int] = {}  # equal rows are often one object: encode each once
    in_mask = {n: _mask(in_sets[n], masks) for n in nodes}
    out_mask = {n: _mask(out_sets[n], masks) for n in nodes}
    gen_mask = {n: _mask(gen[n], masks) for n in nodes}

    # Roots: every definition is born into Out at its birth statement.
    justified_in = dict.fromkeys(nodes, 0)
    justified_out: Dict[PFGNode, int] = {}
    for n in nodes:
        born = justified_out[n] = gen_mask[n] & out_mask[n]
        while born:  # lowest index first
            bit = born & -born
            d = graph.defs[bit.bit_length() - 1]
            note = str(d.stmt) if d.stmt is not None else ""
            out_batches[n].append((bit, ("gen", None, None, note)))
            born ^= bit

    changed = True
    while changed:
        changed = False
        for m in nodes:
            # Flow: pull every still-underived In fact from the first
            # predecessor (edge order) whose Out fact is already derived.
            derived = justified_in[m]
            want = in_mask[m] & ~derived
            if not want:
                continue  # all derived earlier, so nothing new survives either
            for p, kind in edges_in[m]:
                new = justified_out[p] & want
                if not new:
                    continue
                entry = ("flow", p, (p.name, m.name, kind_str[kind]), _flow_note(p, m, kind))
                in_batches[m].append((new, entry))
                derived |= new
                want &= ~new
                if not want:
                    break
            if derived == justified_in[m]:
                continue  # what survived of the earlier In facts is derived
            justified_in[m] = derived
            changed = True
            # Survive: In(m) not killed within the block leaves via Out(m).
            new = derived & out_mask[m] & ~gen_mask[m] & ~justified_out[m]
            if new:
                out_batches[m].append((new, ("survive", m, None, _survive_note(m))))
                justified_out[m] |= new

    # Anything left in the fixpoint has no derivation from a birth site.
    entry = (
        "unsupported",
        None,
        None,
        "present in the fixpoint but not derivable from any "
        "birth site (over-approximate chaotic fixpoint)",
    )
    for n in nodes:
        for rows, derived, batches in (
            (in_mask, justified_in, in_batches),
            (out_mask, justified_out, out_batches),
        ):
            left = rows[n] & ~derived[n]
            if left:
                batches[n].append((left, entry))
    return prov


def _mask(defs: Row, memo: Dict[DefSet, int]) -> int:
    """``defs`` as a definition-index bit mask."""
    if isinstance(defs, int):
        return defs
    mask = memo.get(defs)
    if mask is None:
        mask = 0
        for d in defs:
            mask |= 1 << d.index
        memo[defs] = mask
    return mask


def ensure_provenance(result) -> JustificationGraph:
    """The justification graph for a :class:`~repro.reachdefs.result.
    ReachingDefsResult`, building it post-hoc if the solve did not record
    one (``record_provenance=False``).  Derivation from the converged
    sets is exactly what the in-solve hook does, so the two paths agree.
    """
    prov = getattr(result, "provenance", None)
    if prov is None:
        prov = build_justifications(
            result.graph,
            result.in_sets,
            result.out_sets,
            result.info.gen.masks,
            include_sync=result.synch_pass is not None,
            system=result.system,
        )
        result.provenance = prov
    return prov
