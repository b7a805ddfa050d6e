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

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..ir.symbols import check_events
from ..lang import ast
from ..lang.errors import SemanticError
from .edges import EdgeKind
from .graph import ParallelFlowGraph
from .node import NodeKind, PFGNode


@dataclass
class _Cursor:
    """Where the next statement goes: either an *open* block accepting
    appends, or a set of dangling edges awaiting a fresh block."""

    open: Optional[PFGNode] = None
    dangling: List[Tuple[PFGNode, EdgeKind]] = field(default_factory=list)

    def closed(self) -> "_Cursor":
        if self.open is not None:
            return _Cursor(open=None, dangling=[(self.open, EdgeKind.SEQ)])
        return _Cursor(open=None, dangling=list(self.dangling))


def _block_is_sealed(node: PFGNode) -> bool:
    """No statement may be appended after a post, a branch, or a fork."""
    return (
        node.post_event is not None
        or node.cond is not None
        or node.is_loop_header
        or node.kind is NodeKind.FORK
        or node.kind is NodeKind.EXIT
    )


class PFGBuilder:
    def __init__(self, program: ast.Program):
        self.program = program
        self.graph = ParallelFlowGraph(program.name)
        self._next_construct_id = 0
        self._section_stack: List[Tuple[int, int]] = []
        self._pardo_stack: List[int] = []
        self._section_names: dict = {}

    # -- node helpers ---------------------------------------------------------

    def _new_node(self, kind: NodeKind, name: Optional[str], note: str = "") -> PFGNode:
        node = self.graph.new_node(kind=kind, name=name or "", note=note)
        node.section_path = tuple(self._section_stack)
        node.pardo_ids = tuple(self._pardo_stack)
        return node

    def _fresh(self, cursor: _Cursor, kind: NodeKind = NodeKind.BASIC, name: Optional[str] = None, note: str = "") -> Tuple[PFGNode, _Cursor]:
        """Create a node fed by the cursor's dangling edges; the node
        becomes the open block."""
        cursor = cursor.closed() if cursor.open is not None else cursor
        node = self._new_node(kind, name, note)
        for src, edge_kind in cursor.dangling:
            self.graph.add_edge(src, node, edge_kind)
        return node, _Cursor(open=node)

    def _open_for_append(self, cursor: _Cursor, label: Optional[str]) -> Tuple[PFGNode, _Cursor]:
        """An open block that can absorb a statement labelled ``label``.

        Reuses the current open block when it is not sealed and the label
        is compatible (no label, block unnamed, or same name); otherwise
        starts a new block named after the label.
        """
        node = cursor.open
        if node is not None and not _block_is_sealed(node):
            if label is None or node.name == "" or node.name == label:
                if label is not None and node.name == "":
                    node.name = label
                return node, cursor
        return self._fresh(cursor, NodeKind.BASIC, label)

    # -- build ------------------------------------------------------------------

    def build(self) -> ParallelFlowGraph:
        check_events(self.program)
        g = self.graph
        entry = self._new_node(NodeKind.ENTRY, "Entry")
        g.entry = entry
        cursor = _Cursor(open=entry)
        cursor = self._build_block(self.program.body, cursor)
        exit_node, _ = self._fresh(cursor, NodeKind.EXIT, "Exit")
        g.exit = exit_node
        self._add_sync_edges()
        for node in g.nodes:
            g.register_name(node)
        g.finalize_defs()
        g.section_names = dict(self._section_names)
        return g

    def _build_block(self, stmts: List[ast.Stmt], cursor: _Cursor) -> _Cursor:
        for stmt in stmts:
            cursor = self._build_stmt(stmt, cursor)
        return cursor

    def _build_stmt(self, stmt: ast.Stmt, cursor: _Cursor) -> _Cursor:
        if isinstance(stmt, (ast.Assign, ast.Skip, ast.Clear)):
            node, cursor = self._open_for_append(cursor, stmt.label)
            if not isinstance(stmt, ast.Skip):
                node.stmts.append(stmt)
            if isinstance(stmt, ast.Clear):
                clears = self.graph.clears_of_event.setdefault(stmt.event, [])
                if node not in clears:
                    clears.append(node)
            return cursor
        if isinstance(stmt, ast.Post):
            return self._build_post(stmt, cursor)
        if isinstance(stmt, ast.Wait):
            return self._build_wait(stmt, cursor)
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, cursor)
        if isinstance(stmt, ast.Loop):
            return self._build_loop(stmt, cursor)
        if isinstance(stmt, ast.While):
            return self._build_while(stmt, cursor)
        if isinstance(stmt, ast.ParallelSections):
            return self._build_parallel(stmt, cursor)
        if isinstance(stmt, ast.ParallelDo):
            return self._build_parallel_do(stmt, cursor)
        raise SemanticError(f"cannot lower statement {type(stmt).__name__}", stmt.span)

    def _build_post(self, stmt: ast.Post, cursor: _Cursor) -> _Cursor:
        node, cursor = self._open_for_append(cursor, stmt.label)
        node.post_event = stmt.event
        self.graph.posts_of_event.setdefault(stmt.event, []).append(node)
        return cursor.closed()

    def _build_wait(self, stmt: ast.Wait, cursor: _Cursor) -> _Cursor:
        node = cursor.open
        reusable = (
            node is not None
            and node.kind is NodeKind.BASIC
            and not node.stmts
            and node.wait_event is None
            and not _block_is_sealed(node)
            and (stmt.label is None or node.name in ("", stmt.label))
        )
        if reusable:
            assert node is not None
            if stmt.label is not None and node.name == "":
                node.name = stmt.label
        else:
            node, cursor = self._fresh(cursor, NodeKind.BASIC, stmt.label)
        node.wait_event = stmt.event
        self.graph.waits_of_event.setdefault(stmt.event, []).append(node)
        return cursor

    def _build_if(self, stmt: ast.If, cursor: _Cursor) -> _Cursor:
        branch, cursor = self._open_for_append(cursor, stmt.label)
        branch.cond = stmt.cond
        then_cursor = self._build_block(stmt.then_body, _Cursor(dangling=[(branch, EdgeKind.SEQ)]))
        else_cursor = self._build_block(stmt.else_body, _Cursor(dangling=[(branch, EdgeKind.SEQ)]))
        merged = then_cursor.closed().dangling + else_cursor.closed().dangling
        merge, out = self._fresh(_Cursor(dangling=merged), NodeKind.BASIC, stmt.end_label, note="merge")
        return out

    def _build_loop(self, stmt: ast.Loop, cursor: _Cursor) -> _Cursor:
        header, _ = self._fresh(cursor, NodeKind.BASIC, stmt.label, note="loop-header")
        header.is_loop_header = True
        body_cursor = self._build_block(stmt.body, _Cursor(dangling=[(header, EdgeKind.SEQ)]))
        latch, _ = self._fresh(body_cursor, NodeKind.BASIC, stmt.end_label, note="endloop")
        self.graph.add_edge(latch, header, EdgeKind.SEQ)
        return _Cursor(dangling=[(header, EdgeKind.SEQ)])

    def _build_while(self, stmt: ast.While, cursor: _Cursor) -> _Cursor:
        header, _ = self._fresh(cursor, NodeKind.BASIC, stmt.label, note="while-header")
        header.cond = stmt.cond
        body_cursor = self._build_block(stmt.body, _Cursor(dangling=[(header, EdgeKind.SEQ)]))
        latch, _ = self._fresh(body_cursor, NodeKind.BASIC, stmt.end_label, note="endwhile")
        self.graph.add_edge(latch, header, EdgeKind.SEQ)
        return _Cursor(dangling=[(header, EdgeKind.SEQ)])

    def _build_parallel(self, stmt: ast.ParallelSections, cursor: _Cursor) -> _Cursor:
        fork, _ = self._fresh(cursor, NodeKind.FORK, stmt.label, note="parallel sections")
        cid = self._next_construct_id
        self._next_construct_id += 1
        fork.construct_id = cid
        self._section_names[cid] = tuple(s.name for s in stmt.sections)

        section_exits: List[Tuple[PFGNode, EdgeKind]] = []
        for index, section in enumerate(stmt.sections):
            self._section_stack.append((cid, index))
            try:
                sec_cursor = _Cursor(dangling=[(fork, EdgeKind.PAR)])
                sec_cursor = self._build_block(section.body, sec_cursor)
                if sec_cursor.open is None and sec_cursor.dangling == [(fork, EdgeKind.PAR)]:
                    # Empty section: give it an (empty) block of its own so
                    # the join's parallel predecessors are always section
                    # exit blocks.
                    _node, sec_cursor = self._fresh(sec_cursor, NodeKind.BASIC, section.label, note=f"section {section.name}")
                sec_cursor = sec_cursor.closed()
                section_exits.extend((node, EdgeKind.PAR) for node, _k in sec_cursor.dangling)
            finally:
                self._section_stack.pop()

        join, out = self._fresh(
            _Cursor(dangling=section_exits), NodeKind.JOIN, stmt.end_label, note="end parallel sections"
        )
        join.fork = fork
        join.construct_id = cid
        fork.join = join
        return out

    def _build_parallel_do(self, stmt: ast.ParallelDo, cursor: _Cursor) -> _Cursor:
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
        from ..pfg.graph import ParDoInfo

        header, _ = self._fresh(cursor, NodeKind.BASIC, stmt.label, note="parallel-do")
        header.is_loop_header = True  # implicit nondeterministic branch
        cid = self._next_construct_id
        self._next_construct_id += 1
        self._pardo_stack.append(cid)
        try:
            body_cursor = self._build_block(stmt.body, _Cursor(dangling=[(header, EdgeKind.SEQ)]))
        finally:
            self._pardo_stack.pop()
        merged = body_cursor.closed().dangling + [(header, EdgeKind.SEQ)]
        merge, out = self._fresh(
            _Cursor(dangling=merged), NodeKind.BASIC, stmt.end_label, note="end-parallel-do"
        )
        self.graph.pardos.append(
            ParDoInfo(construct_id=cid, index=stmt.index, header=header, merge=merge)
        )
        return out

    def _add_sync_edges(self) -> None:
        for event, posts in self.graph.posts_of_event.items():
            for wait in self.graph.waits_of_event.get(event, []):
                for post in posts:
                    self.graph.add_edge(post, wait, EdgeKind.SYNC)


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
            n_edges = sum(1 for _ in graph.edges())
            span.annotate(nodes=len(graph.nodes), edges=n_edges, defs=len(graph.defs))
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("pfg.builds")
        metrics.inc("pfg.nodes", len(graph.nodes))
        metrics.inc("pfg.defs", len(graph.defs))
        metrics.inc("pfg.edges", sum(1 for _ in graph.edges()))
    return graph


def section_names_by_construct(program: ast.Program) -> dict:
    """Map construct ids (assigned in document order, as the builder does)
    to section-name tuples — for :func:`repro.pfg.regions.compute_regions`."""
    names = {}
    counter = 0
    for stmt in program.walk():
        if isinstance(stmt, ast.ParallelSections):
            names[counter] = tuple(s.name for s in stmt.sections)
            counter += 1
    return names
