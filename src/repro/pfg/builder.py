"""AST → Parallel Flow Graph construction.

The builder forms *extended basic blocks* (at most one ``wait`` at block
start, at most one ``post``/branch at block end — paper §4) and tags edges
``SEQ``/``PAR``/``SYNC``:

* a fork node is created for each ``Parallel Sections`` statement; ``PAR``
  edges run from it to the first block of every section and from the last
  block of every section to the matching join node;
* a ``SYNC`` edge runs from every ``post(e)`` block to every ``wait(e)``
  block of the same event;
* joins hold a direct reference to their fork (the paper's *technical
  edge*) so ``ForkKill`` information is available at the join.

Statement *labels* control block naming so that programs typed from the
paper's numbered listings produce the paper's exact node names: a labelled
statement opens (or continues) the block of that name; ``end_label`` on
``endif`` / ``endloop`` / ``end parallel sections`` names the merge, latch
and join blocks.  Statements following ``end parallel sections`` are
appended to the join block, matching the paper's Figure 4 (block 11 is both
the join and ``y = x*z``).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from ..ir.symbols import check_event_use, check_events
from ..lang import ast
from ..lang.errors import SemanticError
from .edges import EdgeKind
from .graph import ParallelFlowGraph, ParDoInfo
from .node import NodeKind, PFGNode

#: Edges awaiting the next fresh block: ``(source, kind)`` pairs.
Dangling = List[Tuple[PFGNode, EdgeKind]]

_SEQ = EdgeKind.SEQ
_PAR = EdgeKind.PAR
_BASIC = NodeKind.BASIC
_Assign = ast.Assign
_If = ast.If


class PFGBuilder:
    """Lowers one program in a single pre-order walk over its statements.

    The walk applies the event rules (:func:`repro.ir.symbols.check_event_use`)
    to each statement before lowering it, so a misuse raises the same
    :class:`SemanticError` a whole-program :func:`check_events` would
    have raised first.  Each node is created with its final concurrency
    label ``(pardo_ids, section_path)``.

    Where the next statement goes is held in two attributes: ``_open``,
    the block that accepts appends, or ``None`` and then ``_dangling``,
    the edges awaiting a fresh block.  A block that ends in a post, a
    branch or a fork is closed as soon as it gets it, so the open block
    always accepts a statement.  Dangling lists are never changed in
    place, so they can be shared.
    """

    def __init__(self, program: ast.Program):
        self.program = program
        self.graph = ParallelFlowGraph(program.name)
        self._declared: FrozenSet[str] = frozenset(program.events)
        self._next_construct_id = 0
        self._section_path: Tuple[Tuple[int, int], ...] = ()
        self._pardo_ids: Tuple[int, ...] = ()
        self._section_names: dict = {}
        self._open: Optional[PFGNode] = None
        self._dangling: Dangling = []

    # -- cursor -----------------------------------------------------------------

    def _close(self) -> Dangling:
        """Close the open block, if any; the edges the next block takes."""
        node = self._open
        if node is None:
            return self._dangling
        self._open = None
        return [(node, _SEQ)]

    def _resume(self, dangling: Dangling) -> None:
        """Continue with no open block, before ``dangling``."""
        self._open = None
        self._dangling = dangling

    def _fresh(self, kind: NodeKind, name: Optional[str], note: str = "") -> PFGNode:
        """A new block fed by the cursor; it becomes the open block."""
        node = self._open
        feeds = self._dangling if node is None else ((node, _SEQ),)
        self._open = node = self.graph._attach(
            kind, name or "", note, self._section_path, self._pardo_ids, feeds
        )
        return node

    def _open_for(self, label: Optional[str]) -> PFGNode:
        """The open block, if it can take a statement labelled ``label``
        (no label, block unnamed, or same name); else a new block named
        after the label."""
        node = self._open
        if node is not None and (label is None or not node.name or node.name == label):
            if label is not None:
                node.name = label
            return node
        return self._fresh(_BASIC, label)

    # -- build ------------------------------------------------------------------

    def build(self) -> ParallelFlowGraph:
        g = self.graph
        g.entry = self._fresh(NodeKind.ENTRY, "Entry")
        self._block(self.program.body)
        g.exit = self._fresh(NodeKind.EXIT, "Exit")
        self._add_sync_edges()
        for node in g.nodes:
            g.register_name(node)
        g.finalize_defs()
        g.section_names = self._section_names
        return g

    def _block(self, stmts: List[ast.Stmt]) -> None:
        declared = self._declared
        for stmt in stmts:
            kind = type(stmt)
            if kind is _Assign:
                if declared:
                    check_event_use(stmt, declared)
                node = self._open
                if node is None or stmt.label is not None:
                    node = self._open_for(stmt.label)
                node.stmts.append(stmt)
            elif kind is _If:
                if declared:
                    check_event_use(stmt, declared)
                self._build_if(stmt)
            elif kind is ast.Skip:
                self._open_for(stmt.label)
            elif kind is ast.Clear:
                check_event_use(stmt, declared)
                node = self._open_for(stmt.label)
                node.stmts.append(stmt)
                clears = self.graph.clears_of_event.setdefault(stmt.event, [])
                if node not in clears:
                    clears.append(node)
            elif kind is ast.Post:
                check_event_use(stmt, declared)
                node = self._open_for(stmt.label)
                node.post_event = stmt.event
                self.graph.posts_of_event.setdefault(stmt.event, []).append(node)
                self._dangling = self._close()
            elif kind is ast.Wait:
                check_event_use(stmt, declared)
                self._build_wait(stmt)
            elif kind is ast.Loop:
                self._build_loop(stmt)
            elif kind is ast.While:
                if declared:
                    check_event_use(stmt, declared)
                self._build_while(stmt)
            elif kind is ast.ParallelSections:
                self._build_parallel(stmt)
            elif kind is ast.ParallelDo:
                self._build_parallel_do(stmt)
            else:
                # Nothing past this statement was checked; the event rules
                # come first, as they would on the whole program.
                check_events(self.program)
                raise SemanticError(f"cannot lower statement {kind.__name__}", stmt.span)

    def _build_wait(self, stmt: ast.Wait) -> None:
        node = self._open
        if (
            node is not None
            and node.kind is _BASIC
            and not node.stmts
            and node.wait_event is None
            and (stmt.label is None or node.name in ("", stmt.label))
        ):
            if stmt.label is not None:
                node.name = stmt.label
        else:
            node = self._fresh(_BASIC, stmt.label)
        node.wait_event = stmt.event
        self.graph.waits_of_event.setdefault(stmt.event, []).append(node)

    def _build_if(self, stmt: ast.If) -> None:
        branch = self._open
        if branch is None or stmt.label is not None:
            branch = self._open_for(stmt.label)
        branch.cond = stmt.cond
        self._open = None
        self._dangling = start = [(branch, _SEQ)]
        self._block(stmt.then_body)
        exits = self._close()
        self._dangling = start
        self._block(stmt.else_body)
        self._dangling = exits + self._close()
        self._fresh(_BASIC, stmt.end_label, "merge")

    def _build_loop(self, stmt: ast.Loop) -> None:
        header = self._fresh(_BASIC, stmt.label, "loop-header")
        header.implicit_branch = True
        self._loop_body(header, stmt.body, stmt.end_label, "endloop")

    def _build_while(self, stmt: ast.While) -> None:
        header = self._fresh(_BASIC, stmt.label, "while-header")
        header.cond = stmt.cond
        self._loop_body(header, stmt.body, stmt.end_label, "endwhile")

    def _loop_body(
        self, header: PFGNode, body: List[ast.Stmt], end_label: Optional[str], note: str
    ) -> None:
        """The body after ``header``, a latch back to it, and the exit."""
        exit_edges = [(header, _SEQ)]
        self._resume(exit_edges)
        self._block(body)
        latch = self._fresh(_BASIC, end_label, note)
        self.graph._link(latch, header, _SEQ)
        self._resume(exit_edges)

    def _build_parallel(self, stmt: ast.ParallelSections) -> None:
        fork = self._fresh(NodeKind.FORK, stmt.label, "parallel sections")
        cid = self._next_construct_id
        self._next_construct_id += 1
        fork.construct_id = cid
        self._section_names[cid] = tuple(s.name for s in stmt.sections)

        outer = self._section_path
        start = [(fork, _PAR)]
        section_exits: Dangling = []
        for index, section in enumerate(stmt.sections):
            self._section_path = outer + ((cid, index),)
            self._resume(start)
            self._block(section.body)
            if self._open is None and self._dangling is start:
                # Empty section: give it an (empty) block of its own so
                # the join's parallel predecessors are always section
                # exit blocks.
                self._fresh(_BASIC, section.label, f"section {section.name}")
            section_exits.extend((node, _PAR) for node, _k in self._close())
        self._section_path = outer

        self._resume(section_exits)
        join = self._fresh(NodeKind.JOIN, stmt.end_label, "end parallel sections")
        join.fork = fork
        join.construct_id = cid
        fork.join = join

    def _build_parallel_do(self, stmt: ast.ParallelDo) -> None:
        """``Parallel Do`` (DESIGN.md: a §7 future-work extension) is
        modelled as a conditionally-executed, *self-concurrent* region:

        * a header block with an implicit branch (the trip count may be
          zero, so control may skip the body entirely — like ``loop``);
        * the body, built under the construct's pardo id so every block
          in it is marked concurrent with itself and its siblings
          (distinct iterations);
        * a merge block joining the body exit and the header bypass.

        All edges are sequential: under copy-in/copy-out each iteration
        reads the header-time copies, so there is no cross-iteration flow
        edge to draw — cross-iteration interference surfaces through
        ``ParallelKill`` and the anomaly reports instead.
        """
        header = self._fresh(_BASIC, stmt.label, "parallel-do")
        header.implicit_branch = True
        cid = self._next_construct_id
        self._next_construct_id += 1
        outer = self._pardo_ids
        self._pardo_ids = outer + (cid,)
        bypass = [(header, _SEQ)]
        self._resume(bypass)
        self._block(stmt.body)
        self._pardo_ids = outer
        self._resume(self._close() + bypass)
        merge = self._fresh(_BASIC, stmt.end_label, "end-parallel-do")
        self.graph.pardos.append(
            ParDoInfo(construct_id=cid, index=stmt.index, header=header, merge=merge)
        )

    def _add_sync_edges(self) -> None:
        g = self.graph
        for event, posts in g.posts_of_event.items():
            for wait in g.waits_of_event.get(event, []):
                for post in posts:
                    g._link(post, wait, EdgeKind.SYNC)


def build_pfg(program: ast.Program) -> ParallelFlowGraph:
    """Build the Parallel Flow Graph of ``program``.

    Construction is traced as a ``pfg-build`` span carrying node/edge/def
    counts (and mirrored into ``pfg.*`` counters) when an observability
    session is installed — see :mod:`repro.obs`.
    """
    from ..obs import get_metrics, get_tracer

    tracer = get_tracer()
    with tracer.span("pfg-build", program=program.name) as span:
        graph = PFGBuilder(program).build()
        if tracer.enabled:
            span.annotate(nodes=len(graph.nodes), edges=graph.edge_count(), defs=len(graph.defs))
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("pfg.builds")
        metrics.inc("pfg.nodes", len(graph.nodes))
        metrics.inc("pfg.defs", len(graph.defs))
        metrics.inc("pfg.edges", graph.edge_count())
    return graph

