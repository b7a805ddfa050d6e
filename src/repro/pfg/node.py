"""Parallel Flow Graph nodes: extended basic blocks.

An *extended basic block* (paper §4) is a basic block that may additionally
have **at most one ``wait`` at its start** and **at most one ``post`` or
branch at its end**.  A node therefore consists of:

``wait_event``  — optional event waited on before the block body runs;
``stmts``       — straight-line body (assignments, skips, clears);
``post_event``  — optional event posted at the end, *or*
``cond``        — optional branch condition at the end (mutually exclusive
with ``post_event``; the headers of ``loop`` and ``parallel do`` end in
an implicit nondeterministic branch instead and leave ``cond = None``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ..ir.defs import Definition, Use
from ..lang import ast


class NodeKind(enum.Enum):
    ENTRY = "entry"
    EXIT = "exit"
    BASIC = "basic"
    FORK = "fork"  # a `Parallel Sections` statement
    JOIN = "join"  # an `End Parallel Sections` statement

    def __str__(self) -> str:
        return self.value


@dataclass(eq=False)
class PFGNode:
    """One extended basic block of a :class:`~repro.pfg.graph.ParallelFlowGraph`.

    Nodes compare and hash by identity; ``id`` is the dense index within
    the owning graph and ``name`` the human-facing label (the paper's block
    number where the source was labelled).  The concurrency label
    ``(pardo_ids, section_path)`` is given when the node is created and
    never changes.
    """

    id: int
    kind: NodeKind
    name: str = ""
    note: str = ""
    """Free-form role hint for rendering ("loop-header", "endloop", "merge")."""

    #: Section-membership path for may-happen-in-parallel queries: a tuple
    #: of ``(construct_id, section_index)`` pairs, outermost first.
    section_path: Tuple[Tuple[int, int], ...] = ()

    #: ids of enclosing ``Parallel Do`` constructs.  A block inside a
    #: parallel do may execute concurrently with *itself* and with every
    #: other block of the same body (distinct iterations).
    pardo_ids: Tuple[int, ...] = ()

    wait_event: Optional[str] = None
    stmts: List[ast.Stmt] = field(default_factory=list)
    post_event: Optional[str] = None
    cond: Optional[ast.Expr] = None
    implicit_branch: bool = False
    """The block ends in a branch without a condition: the header of a
    ``loop`` (exit or iterate) or of a ``parallel do`` (the trip count
    may be zero).  Not a loop test: a ``while`` header branches on its
    ``cond`` and a ``parallel do`` closes no loop; the graph's
    ``has_retreating_edge`` and back edges say where loops are."""

    #: Filled by the builder's finalization pass.
    defs: List[Definition] = field(default_factory=list)

    #: For JOIN nodes: the matching fork (the paper's "technical edge").
    fork: Optional["PFGNode"] = None
    #: For FORK nodes: the matching join.
    join: Optional["PFGNode"] = None
    #: For FORK/JOIN nodes: id of the parallel construct they delimit.
    construct_id: Optional[int] = None

    _reads = None  # unannotated, so not a dataclass field: see ``reads``

    # -- classification ----------------------------------------------------

    @property
    def is_fork(self) -> bool:
        return self.kind is NodeKind.FORK

    @property
    def is_join(self) -> bool:
        return self.kind is NodeKind.JOIN

    @property
    def is_wait(self) -> bool:
        return self.wait_event is not None

    @property
    def is_post(self) -> bool:
        return self.post_event is not None

    @property
    def is_branch(self) -> bool:
        return self.cond is not None or self.implicit_branch

    # -- statement-level queries --------------------------------------------

    def assignments(self) -> Iterator[Tuple[int, ast.Assign]]:
        """``(ordinal, stmt)`` for each assignment in the body, in order."""
        for ordinal, stmt in enumerate(self.stmts):
            if isinstance(stmt, ast.Assign):
                yield ordinal, stmt

    @property
    def reads(self) -> Tuple[Tuple[str, ...], ...]:
        """The variables each statement reads, by ordinal (``()`` for a
        statement that is not an assignment), then those of the trailing
        branch condition at ordinal ``len(stmts)``.

        Built on first use, after the builder has filled the block, so
        each expression is walked once however many clients read it.
        """
        reads = self._reads
        if reads is None:
            listed = [
                stmt.expr.variables() if isinstance(stmt, ast.Assign) else ()
                for stmt in self.stmts
            ]
            listed.append(self.cond.variables() if self.cond is not None else ())
            reads = self._reads = tuple(listed)
        return reads

    def uses(self) -> List[Use]:
        """All variable reads in this node, in execution order.

        Reads come from assignment right-hand sides and from the trailing
        branch condition (given ordinal ``len(stmts)``, i.e. after every
        body statement).
        """
        return [
            Use(var=var, site=self.name, ordinal=ordinal)
            for ordinal, names in enumerate(self.reads)
            for var in names
        ]

    def defs_of(self, var: str) -> List[Definition]:
        """This node's definitions of ``var``, in order."""
        return [d for d in self.defs if d.var == var]

    def gen_defs(self) -> List[Definition]:
        """Downward-exposed definitions: the last definition of each
        variable assigned in this node (paper's ``Gen`` set)."""
        last: dict = {}
        for d in self.defs:
            last[d.var] = d
        return list(last.values())

    def local_def_before(self, var: str, ordinal: int) -> Optional[Definition]:
        """The nearest definition of ``var`` in this node strictly before
        statement ``ordinal``, if any (for intra-block ud-chains)."""
        best: Optional[Definition] = None
        for def_ordinal, stmt in self.assignments():
            if def_ordinal < ordinal and stmt.target == var:
                for d in self.defs:
                    if d.stmt is stmt:
                        best = d
        return best

    # -- rendering -----------------------------------------------------------

    def describe(self) -> str:
        """One-line summary used by DOT export and debugging."""
        parts: List[str] = []
        if self.wait_event:
            parts.append(f"wait({self.wait_event})")
        parts.extend(str(s) for s in self.stmts)
        if self.post_event:
            parts.append(f"post({self.post_event})")
        if self.cond is not None:
            parts.append(f"branch {self.cond}")
        elif self.implicit_branch:
            parts.append("loop?")
        body = "; ".join(parts) if parts else "(empty)"
        return f"[{self.name}:{self.kind}] {body}"

    # Identity hash, same as the default — spelled out because nodes key
    # the hot dataflow dicts and the C-level slot beats a Python method.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"PFGNode({self.id}, {self.name!r}, {self.kind})"
