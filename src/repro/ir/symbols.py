"""Symbol information: scalar variables and event variables.

A light semantic layer over the AST.  ``check_event_use`` holds the
well-formedness rules the paper assumes (``post``/``wait``/``clear`` only
name declared events; events and scalars do not collide) for one
statement; ``check_events`` applies them to a whole program, and the PFG
builder applies them as it lowers each statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Set, Tuple

from ..lang import ast
from ..lang.errors import SemanticError


@dataclass
class SymbolTable:
    """Variables and events of one program."""

    variables: Tuple[str, ...]
    events: Tuple[str, ...]
    free_variables: Tuple[str, ...] = field(default=())
    """Variables read somewhere but never assigned — the interpreter treats
    these as nondeterministic inputs (e.g. ``condition`` in the paper's
    Figure 3)."""

    def is_event(self, name: str) -> bool:
        return name in self.events

    def is_variable(self, name: str) -> bool:
        return name in self.variables


def build_symbol_table(program: ast.Program) -> SymbolTable:
    """Collect symbols and run the event well-formedness checks."""
    check_events(program)
    assigned = program.assigned_variables()
    used = program.used_variables()
    events = set(program.events)
    variables: List[str] = []
    seen: Set[str] = set()
    for name in (*assigned, *used):
        if name not in seen and name not in events:
            seen.add(name)
            variables.append(name)
    free = tuple(v for v in used if v not in set(assigned) and v not in events)
    return SymbolTable(variables=tuple(variables), events=tuple(program.events), free_variables=free)


def check_events(program: ast.Program) -> None:
    """Raise :class:`SemanticError` on the first event misuse, in
    pre-order (the PFG builder applies the same rules during its walk)."""
    declared = frozenset(program.events)
    for stmt in program.walk():
        check_event_use(stmt, declared)


def check_event_use(stmt: ast.Stmt, declared: FrozenSet[str]) -> None:
    """The event rules, for one statement and not the statements below it.

    Sync statements name declared events; declared events are not also
    used as scalar variables, assigned or read.  With no event declared
    only a sync statement can break a rule, so assignments and
    conditions are not read.
    """
    kind = type(stmt)
    if kind is ast.Post or kind is ast.Wait or kind is ast.Clear:
        if stmt.event not in declared:
            raise SemanticError(
                f"{kind.__name__.lower()} on undeclared event {stmt.event!r}", stmt.span
            )
        return
    if not declared:
        return
    if kind is ast.Assign:
        if stmt.target in declared:
            raise SemanticError(
                f"event {stmt.target!r} cannot be assigned like a scalar", stmt.span
            )
        read = stmt.expr
    elif kind is ast.If or kind is ast.While:
        read = stmt.cond
    else:
        return
    for v in read.variables():
        if v in declared:
            raise SemanticError(f"event {v!r} cannot be read as a scalar", stmt.span)
