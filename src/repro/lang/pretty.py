"""Pretty-printer: AST back to parseable mini-PCF source.

The printer is the inverse of :func:`repro.lang.parser.parse_program` up to
whitespace and redundant parentheses; the property test
``tests/property/test_roundtrip.py`` checks ``parse(pretty(p)) == p``
structurally for generated programs.
"""

from __future__ import annotations

from typing import List

from . import ast

_INDENT = "  "


def _label_prefix(stmt: ast.Stmt) -> str:
    return f"({stmt.label}) " if stmt.label is not None else ""


def _end_prefix(label) -> str:
    return f"({label}) " if label is not None else ""


class PrettyPrinter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def _emit(self, text: str) -> None:
        self.lines.append(f"{_INDENT * self.depth}{text}")

    def program(self, prog: ast.Program) -> str:
        self._emit(f"program {prog.name}")
        self.depth += 1
        for event in prog.events:
            self._emit(f"event {event}")
        self.block(prog.body)
        self.depth -= 1
        self._emit("end program")
        return "\n".join(self.lines) + "\n"

    def block(self, stmts: List[ast.Stmt]) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, stmt: ast.Stmt) -> None:
        prefix = _label_prefix(stmt)
        if isinstance(stmt, ast.Assign):
            self._emit(f"{prefix}{stmt.target} = {stmt.expr}")
        elif isinstance(stmt, ast.Skip):
            self._emit(f"{prefix}skip")
        elif isinstance(stmt, ast.Post):
            self._emit(f"{prefix}post({stmt.event})")
        elif isinstance(stmt, ast.Wait):
            self._emit(f"{prefix}wait({stmt.event})")
        elif isinstance(stmt, ast.Clear):
            self._emit(f"{prefix}clear({stmt.event})")
        elif isinstance(stmt, ast.If):
            self._emit(f"{prefix}if {stmt.cond} then")
            self.depth += 1
            self.block(stmt.then_body)
            self.depth -= 1
            if stmt.else_body:
                self._emit("else")
                self.depth += 1
                self.block(stmt.else_body)
                self.depth -= 1
            self._emit(f"{_end_prefix(stmt.end_label)}endif")
        elif isinstance(stmt, ast.Loop):
            self._emit(f"{prefix}loop")
            self.depth += 1
            self.block(stmt.body)
            self.depth -= 1
            self._emit(f"{_end_prefix(stmt.end_label)}endloop")
        elif isinstance(stmt, ast.While):
            self._emit(f"{prefix}while {stmt.cond} do")
            self.depth += 1
            self.block(stmt.body)
            self.depth -= 1
            self._emit(f"{_end_prefix(stmt.end_label)}endwhile")
        elif isinstance(stmt, ast.ParallelDo):
            self._emit(f"{prefix}parallel do {stmt.index}")
            self.depth += 1
            self.block(stmt.body)
            self.depth -= 1
            self._emit(f"{_end_prefix(stmt.end_label)}end parallel do")
        elif isinstance(stmt, ast.ParallelSections):
            self._emit(f"{prefix}parallel sections")
            self.depth += 1
            for section in stmt.sections:
                self._emit(f"{_label_prefix(section)}section {section.name}")
                self.depth += 1
                self.block(section.body)
                self.depth -= 1
            self.depth -= 1
            self._emit(f"{_end_prefix(stmt.end_label)}end parallel sections")
        else:  # pragma: no cover - future node kinds
            raise TypeError(f"cannot pretty-print {type(stmt).__name__}")


def pretty(prog: ast.Program) -> str:
    """Render ``prog`` as parseable source text."""
    return PrettyPrinter().program(prog)
