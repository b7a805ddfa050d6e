"""Source locations and diagnostics for the mini-PCF language.

Every token and AST node carries a :class:`SourceSpan` so that analysis
results (definitions, anomaly reports, optimization suggestions) can point
back at source text the way a compiler diagnostic would.
"""

from __future__ import annotations

from typing import NamedTuple


class SourcePos(NamedTuple):
    """A single point in a source file (1-based line, 1-based column).

    A tuple, so positions order by line, then column."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class SourceSpan(NamedTuple):
    """A half-open region of source text, ``[start, end)``."""

    start: SourcePos
    end: SourcePos

    @staticmethod
    def point(line: int, column: int) -> "SourceSpan":
        pos = SourcePos(line, column)
        return SourceSpan(pos, pos)

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Smallest span covering both ``self`` and ``other``."""
        start = min(self.start, other.start)
        end = max(self.end, other.end)
        return SourceSpan(start, end)

    def __str__(self) -> str:
        return str(self.start)


#: Span used for synthesized nodes that have no source text.
NO_SPAN = SourceSpan.point(0, 0)


class LangError(Exception):
    """Base class for all front-end errors."""

    def __init__(self, message: str, span: SourceSpan = NO_SPAN):
        self.message = message
        self.span = span
        super().__init__(f"{span}: {message}" if span != NO_SPAN else message)


class LexError(LangError):
    """Raised on an unrecognized character or malformed literal."""


class ParseError(LangError):
    """Raised on a syntactically invalid program."""


class SemanticError(LangError):
    """Raised on well-formedness violations (e.g. wait on undeclared event)."""
