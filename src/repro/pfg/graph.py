"""The Parallel Flow Graph container (paper §4).

A directed graph over :class:`~repro.pfg.node.PFGNode` with
:class:`~repro.pfg.edges.EdgeKind`-tagged edges, plus the bookkeeping the
data-flow equations need: predecessor families split by edge kind
(``seq_preds`` / ``par_preds`` / ``sync_preds``), fork↔join matching, event
post/wait/clear indexes, the definition table, and one :class:`GraphIndex`
of control-flow facts (reverse postorder, back edges, forward
predecessors, natural loops, forward reachability) that every analysis
reads instead of walking the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..ir.defs import DefTable
from ..lang import ast
from .edges import CONTROL_KINDS, EdgeKind
from .node import NodeKind, PFGNode

Adjacency = Dict[PFGNode, List[Tuple[PFGNode, EdgeKind]]]


@dataclass
class ParDoInfo:
    """One ``Parallel Do`` construct: its header/merge blocks and index.

    The body is modelled as a conditionally-executed (the trip count may
    be zero), *self-concurrent* region between ``header`` and ``merge``:
    body blocks carry the construct id in ``PFGNode.pardo_ids``, which is
    what makes :func:`repro.pfg.concurrency.concurrent` treat distinct
    iterations as parallel.  Copy-in/copy-out means iterations read the
    header-time copies, so no extra flow edges are needed.
    """

    construct_id: int
    index: str
    header: "PFGNode"
    merge: "PFGNode"


class ParallelFlowGraph:
    """Mutable PFG; built by :mod:`repro.pfg.builder`, then treated as
    immutable by the analyses."""

    def __init__(self, program_name: str = "program"):
        self.program_name = program_name
        self.nodes: List[PFGNode] = []
        self.entry: Optional[PFGNode] = None
        self.exit: Optional[PFGNode] = None
        self.defs = DefTable()
        self._succs: Dict[PFGNode, List[Tuple[PFGNode, EdgeKind]]] = {}
        self._preds: Dict[PFGNode, List[Tuple[PFGNode, EdgeKind]]] = {}
        self._by_name: Dict[str, PFGNode] = {}
        #: event name -> nodes that post / wait on it
        self.posts_of_event: Dict[str, List[PFGNode]] = {}
        self.waits_of_event: Dict[str, List[PFGNode]] = {}
        #: event name -> nodes holding a ``clear`` of it (each node once)
        self.clears_of_event: Dict[str, List[PFGNode]] = {}
        #: construct id -> section names (filled by the builder)
        self.section_names: Dict[int, Tuple[str, ...]] = {}
        #: Parallel Do constructs, in document order (filled by the builder)
        self.pardos: List["ParDoInfo"] = []
        #: Set by :meth:`add_edge` when a control edge enters a node created
        #: no later than its source (a loop latch).  While it is ``False``
        #: every control edge runs from a lower id to a higher one, so the
        #: graph has no cycle and no back edge.
        self.has_retreating_edge = False
        self._index: Optional[GraphIndex] = None
        self._genkill_memo = None

    # -- construction -------------------------------------------------------

    def new_node(self, kind: NodeKind = NodeKind.BASIC, name: str = "", note: str = "") -> PFGNode:
        node = self._attach(kind, name, note, (), (), ())
        self._invalidate()
        return node

    def add_edge(self, src: PFGNode, dst: PFGNode, kind: EdgeKind) -> None:
        """Add an edge, ignoring exact duplicates (same endpoints + kind)."""
        self._link(src, dst, kind)
        self._invalidate()

    # The builder owns the graph until it returns it: no fact is cached
    # yet, so its two primitives below invalidate nothing.

    def _attach(
        self,
        kind: NodeKind,
        name: str,
        note: str,
        section_path: Tuple[Tuple[int, int], ...],
        pardo_ids: Tuple[int, ...],
        feeds: Iterable[Tuple[PFGNode, EdgeKind]],
    ) -> PFGNode:
        """A new node, with an edge into it from each ``(source, kind)`` of
        ``feeds`` (a repeated pair gives one edge).  Its id is the highest,
        so none of these edges retreats."""
        node = PFGNode(len(self.nodes), kind, name, note, section_path, pardo_ids)
        self.nodes.append(node)
        succs = self._succs
        succs[node] = []
        preds = self._preds[node] = []
        for pair in feeds:
            if pair not in preds:
                src, edge_kind = pair
                succs[src].append((node, edge_kind))
                preds.append(pair)
        return node

    def _link(self, src: PFGNode, dst: PFGNode, kind: EdgeKind) -> None:
        if (dst, kind) in self._succs[src]:
            return
        self._succs[src].append((dst, kind))
        self._preds[dst].append((src, kind))
        if dst.id <= src.id and kind is not EdgeKind.SYNC:
            self.has_retreating_edge = True

    def register_name(self, node: PFGNode) -> None:
        """Record ``node.name`` in the name index (builder calls this after
        names are final); collisions get a ``_2``, ``_3``... suffix."""
        base = node.name or f"n{node.id}"
        name = base
        bump = 1
        while name in self._by_name:
            bump += 1
            name = f"{base}_{bump}"
        node.name = name
        self._by_name[name] = node

    def _invalidate(self) -> None:
        self._index = None
        # Gen/kill local sets are a pure function of graph structure and
        # are memoized on the graph (see repro.reachdefs.genkill); any
        # structural change voids them.
        self._genkill_memo = None

    # -- lookup ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def node(self, name: str) -> PFGNode:
        """Look up a node by its (unique) name; raises ``KeyError``."""
        return self._by_name[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    # -- adjacency --------------------------------------------------------------

    def succs(self, n: PFGNode, kinds: Sequence[EdgeKind] = tuple(EdgeKind)) -> List[PFGNode]:
        return [m for (m, k) in self._succs[n] if k in kinds]

    def preds(self, n: PFGNode, kinds: Sequence[EdgeKind] = tuple(EdgeKind)) -> List[PFGNode]:
        return [m for (m, k) in self._preds[n] if k in kinds]

    def out_edges(self, n: PFGNode) -> List[Tuple[PFGNode, EdgeKind]]:
        return list(self._succs[n])

    def in_edges(self, n: PFGNode) -> List[Tuple[PFGNode, EdgeKind]]:
        return list(self._preds[n])

    def seq_preds(self, n: PFGNode) -> List[PFGNode]:
        return self.preds(n, (EdgeKind.SEQ,))

    def par_preds(self, n: PFGNode) -> List[PFGNode]:
        return self.preds(n, (EdgeKind.PAR,))

    def sync_preds(self, n: PFGNode) -> List[PFGNode]:
        return self.preds(n, (EdgeKind.SYNC,))

    def control_preds(self, n: PFGNode) -> List[PFGNode]:
        return self.preds(n, CONTROL_KINDS)

    def control_succs(self, n: PFGNode) -> List[PFGNode]:
        return self.succs(n, CONTROL_KINDS)

    def all_preds(self, n: PFGNode) -> List[PFGNode]:
        """All predecessors: sequential, parallel, and synchronization
        (the paper's ``pred(n)`` in the synchronized equations)."""
        return self.preds(n)

    def edges(self) -> Iterable[Tuple[PFGNode, PFGNode, EdgeKind]]:
        for src in self.nodes:
            for dst, kind in self._succs[src]:
                yield src, dst, kind

    def edge_count(self, kinds: Sequence[EdgeKind] = tuple(EdgeKind)) -> int:
        return sum(1 for *_ignored, k in self.edges() if k in kinds)

    # -- node families ------------------------------------------------------------

    @property
    def forks(self) -> List[PFGNode]:
        return [n for n in self.nodes if n.kind is NodeKind.FORK]

    @property
    def joins(self) -> List[PFGNode]:
        return [n for n in self.nodes if n.kind is NodeKind.JOIN]

    @property
    def waits(self) -> List[PFGNode]:
        return [n for n in self.nodes if n.is_wait]

    @property
    def posts(self) -> List[PFGNode]:
        return [n for n in self.nodes if n.is_post]

    # -- traversal ----------------------------------------------------------------

    def _dfs(self) -> Tuple[List[PFGNode], Set[Tuple[PFGNode, PFGNode]]]:
        """Iterative DFS over control edges from entry.

        Returns (postorder, back_edges).  An edge ``u -> v`` is a back edge
        iff ``v`` is on the current DFS stack when the edge is examined —
        for the reducible graphs the builder produces these are exactly the
        loop-latch edges.
        """
        assert self.entry is not None, "graph has no entry node"
        postorder: List[PFGNode] = []
        back: Set[Tuple[PFGNode, PFGNode]] = set()
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[PFGNode, int] = {n: 0 for n in self.nodes}
        # (node, its control successors, listed once, next one to visit)
        stack: List[Tuple[PFGNode, List[PFGNode], int]] = [
            (self.entry, self.control_succs(self.entry), 0)
        ]
        color[self.entry] = GREY
        while stack:
            node, succs, i = stack.pop()
            if i < len(succs):
                stack.append((node, succs, i + 1))
                nxt = succs[i]
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, self.control_succs(nxt), 0))
                elif color[nxt] == GREY:
                    back.add((node, nxt))
            else:
                color[node] = BLACK
                postorder.append(node)
        return postorder, back

    def index(self) -> "GraphIndex":
        """The control-flow facts of this graph, built on first use."""
        if self._index is None:
            postorder, back = self._dfs()
            self._index = GraphIndex(self.nodes, self._succs, self._preds, postorder, back)
        return self._index

    def reverse_postorder(self) -> Tuple[PFGNode, ...]:
        """Control-flow reverse postorder from the entry (unreachable nodes
        appended last, in id order)."""
        return self.index().rpo

    def back_edges(self) -> FrozenSet[Tuple[PFGNode, PFGNode]]:
        """Control back edges (loop latches) found by DFS from entry."""
        return self.index().back_edges

    def forward_control_preds(self, n: PFGNode) -> Tuple[PFGNode, ...]:
        """Control predecessors of ``n`` excluding back edges — the edge
        relation over which Preserved sets are computed (single
        construct-instance semantics, DESIGN.md §2)."""
        return self.index().forward_preds[n]

    def document_order(self) -> List[PFGNode]:
        """Nodes in creation (program) order — the order the paper's tables
        list, and the default solver sweep order."""
        return list(self.nodes)

    # -- misc -----------------------------------------------------------------------

    def finalize_defs(self) -> None:
        """(Re)build the definition table from node statements.  Called by
        the builder once node names are final."""
        add = (table := DefTable()).add
        for node in self.nodes:
            stmts = node.stmts
            if stmts:
                site = node.name
                node.defs = [add(s.target, site, s) for s in stmts if isinstance(s, ast.Assign)]
            elif node.defs:
                node.defs = []
        self.defs = table

    def describe(self) -> str:
        """Multi-line structural dump (tests and debugging)."""
        lines = [f"PFG {self.program_name}: {len(self.nodes)} nodes"]
        for n in self.nodes:
            lines.append("  " + n.describe())
            for dst, kind in self._succs[n]:
                lines.append(f"    -[{kind}]-> {dst.name}")
        return "\n".join(lines)


class GraphIndex:
    """Control-flow facts of one graph, each computed once.

    RPO and back edges come from the graph's DFS; forward predecessors,
    natural loops and reachability are built on first use, so programs
    without loops or posts never pay for them.  All of it is tuples and
    frozensets, since cached graphs are shared across requests.  The index
    holds the graph's node list and adjacency dicts, never the graph: a
    graph ↔ index cycle would leave dropped graphs to the cyclic GC.
    """

    def __init__(self, nodes: List[PFGNode], succs: Adjacency, preds: Adjacency, postorder, back):
        self._nodes, self._succs, self._preds = nodes, succs, preds
        seen = set(postorder)
        #: reverse postorder; unreachable nodes last, in id order
        self.rpo = tuple(reversed(postorder)) + tuple(n for n in nodes if n not in seen)
        #: control back edges ``(latch, header)``
        self.back_edges: FrozenSet[Tuple[PFGNode, PFGNode]] = frozenset(back)

    @cached_property
    def forward_preds(self) -> Dict[PFGNode, Tuple[PFGNode, ...]]:
        """node -> its control predecessors over non-back edges."""
        back = self.back_edges
        return {
            n: tuple(p for p, k in self._preds[n] if k in CONTROL_KINDS and (p, n) not in back)
            for n in self._nodes
        }

    @cached_property
    def loops(self) -> Tuple[Tuple[PFGNode, PFGNode, FrozenSet[PFGNode]], ...]:
        """Natural loops ``(header, latch, body)``, one per back edge,
        sorted by header id then latch id.  The body is the header plus
        every node that reaches the latch without passing the header."""
        loops = []
        for latch, header in sorted(self.back_edges, key=lambda e: (e[1].id, e[0].id)):
            body, stack = {header, latch}, [latch]
            while stack:
                for p, k in self._preds[stack.pop()]:
                    if k in CONTROL_KINDS and p not in body:
                        body.add(p)
                        stack.append(p)
            loops.append((header, latch, frozenset(body)))
        return tuple(loops)

    @cached_property
    def control_reach(self) -> Tuple[int, ...]:
        """``control_reach[a.id] >> b.id & 1`` iff ``a`` reaches ``b`` over
        forward control edges (reflexive)."""
        return self._reach(CONTROL_KINDS)

    @cached_property
    def sync_reach(self) -> Tuple[int, ...]:
        """As :attr:`control_reach`, over forward control and sync edges."""
        return self._reach(tuple(EdgeKind))

    def _reach(self, kinds: Sequence[EdgeKind]) -> Tuple[int, ...]:
        # One fixpoint over reverse RPO: sync edges (and unreachable
        # nodes) may point upstream, so sweep until nothing changes.
        back = self.back_edges
        order = [
            (n.id, [m.id for m, k in self._succs[n] if k in kinds and (n, m) not in back])
            for n in reversed(self.rpo)
        ]
        reach = [1 << n.id for n in self._nodes]
        changed = True
        while changed:
            changed = False
            for i, succs in order:
                mask = reach[i]
                for j in succs:
                    mask |= reach[j]
                if mask != reach[i]:
                    reach[i], changed = mask, True
        return tuple(reach)
