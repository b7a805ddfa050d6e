"""Reference PFG builder: the builder as it was before the event checks
moved into its walk.

``repro.pfg.builder`` checks the event rules one statement at a time
during its own walk, creates each node with its final concurrency label
and links it without invalidating the graph's caches; this is the
builder it replaced, kept verbatim (with ``is_loop_header`` spelled
``implicit_branch``), together with the whole-AST ``check_events`` walk
it ran first, so the oracle tests can assert both give the same graph or
the same ``SemanticError``.  ``reference_validate`` is ``validate_pfg``
as it was before it checked each node in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.lang import ast
from repro.lang.errors import SemanticError
from repro.pfg.edges import EdgeKind
from repro.pfg.graph import ParallelFlowGraph, ParDoInfo
from repro.pfg.node import NodeKind, PFGNode


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
        or node.implicit_branch
        or node.kind is NodeKind.FORK
        or node.kind is NodeKind.EXIT
    )


class ReferenceBuilder:
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
        reference_check_events(self.program)
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
        header.implicit_branch = True
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
        header, _ = self._fresh(cursor, NodeKind.BASIC, stmt.label, note="parallel-do")
        header.implicit_branch = True  # implicit nondeterministic branch
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


def reference_check_events(program: ast.Program) -> None:
    """Raise :class:`SemanticError` on event misuse.

    Checks: sync statements name declared events; declared events are not
    also used as scalar variables.
    """
    declared = set(program.events)
    for stmt in program.walk():
        if isinstance(stmt, (ast.Post, ast.Wait, ast.Clear)):
            if stmt.event not in declared:
                kind = type(stmt).__name__.lower()
                raise SemanticError(f"{kind} on undeclared event {stmt.event!r}", stmt.span)
        elif isinstance(stmt, ast.Assign):
            if stmt.target in declared:
                raise SemanticError(
                    f"event {stmt.target!r} cannot be assigned like a scalar", stmt.span
                )
            for v in stmt.expr.variables():
                if v in declared:
                    raise SemanticError(f"event {v!r} cannot be read as a scalar", stmt.span)
        elif isinstance(stmt, (ast.If, ast.While)):
            for v in stmt.cond.variables():
                if v in declared:
                    raise SemanticError(f"event {v!r} cannot be read as a scalar", stmt.span)


def reference_build_pfg(program: ast.Program) -> ParallelFlowGraph:
    return ReferenceBuilder(program).build()


def reference_validate(graph: ParallelFlowGraph) -> List[str]:
    """Every structural violation, in the order ``validate_pfg`` reports
    them (the function before it checked each node in one pass)."""
    bad: List[str] = []

    if graph.entry is None:
        bad.append("graph has no entry node")
    elif graph.entry.kind is not NodeKind.ENTRY:
        bad.append("entry node is not of kind ENTRY")
    if graph.exit is None:
        bad.append("graph has no exit node")

    names = [n.name for n in graph.nodes]
    if len(set(names)) != len(names):
        dupes = sorted({x for x in names if names.count(x) > 1})
        bad.append(f"duplicate node names: {dupes}")

    for node in graph.nodes:
        # Extended-basic-block shape.
        if node.post_event is not None and node.cond is not None:
            bad.append(f"{node.name}: has both a post and a branch at block end")
        if node.kind is NodeKind.FORK:
            if node.stmts or node.post_event or node.cond or node.wait_event:
                bad.append(f"{node.name}: fork node carries statements")
            if node.join is None:
                bad.append(f"{node.name}: fork without matching join")
            elif node.join.fork is not node:
                bad.append(f"{node.name}: fork/join links inconsistent")
            if node.construct_id is None:
                bad.append(f"{node.name}: fork without construct id")
        if node.kind is NodeKind.JOIN:
            if node.fork is None:
                bad.append(f"{node.name}: join without matching fork")
            par_in = graph.par_preds(node)
            if not par_in:
                bad.append(f"{node.name}: join with no parallel predecessors")
        # Edge-kind placement.
        for dst, kind in graph.out_edges(node):
            if kind is EdgeKind.PAR and not (node.kind is NodeKind.FORK or dst.kind is NodeKind.JOIN):
                bad.append(f"{node.name} -> {dst.name}: PAR edge not at a fork or into a join")
            if kind is EdgeKind.SYNC:
                if node.post_event is None:
                    bad.append(f"{node.name} -> {dst.name}: SYNC edge from a non-post block")
                if dst.wait_event is None:
                    bad.append(f"{node.name} -> {dst.name}: SYNC edge into a non-wait block")
                elif node.post_event is not None and node.post_event != dst.wait_event:
                    bad.append(f"{node.name} -> {dst.name}: SYNC edge across different events")
        if node.kind is NodeKind.FORK:
            par_out = graph.succs(node, (EdgeKind.PAR,))
            if not par_out:
                bad.append(f"{node.name}: fork with no parallel successors")
        if node.kind is NodeKind.EXIT and graph.control_succs(node):
            bad.append(f"{node.name}: exit node has successors")

    # Every node (except entry) is reachable over control edges.
    if graph.entry is not None:
        reachable = set()
        stack = [graph.entry]
        while stack:
            cur = stack.pop()
            if cur in reachable:
                continue
            reachable.add(cur)
            stack.extend(graph.control_succs(cur))
        for node in graph.nodes:
            if node not in reachable:
                bad.append(f"{node.name}: unreachable from entry over control edges")

    # Definition table is consistent with node contents.
    for node in graph.nodes:
        for d in node.defs:
            if d.site != node.name:
                bad.append(f"definition {d} recorded in block {node.name}")
    if sum(len(n.defs) for n in graph.nodes) != len(graph.defs):
        bad.append("definition table size disagrees with per-node definitions")

    return bad
