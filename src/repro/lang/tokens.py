"""Token definitions for the mini-PCF language.

The language is a small, self-contained stand-in for the PCF FORTRAN
extensions the paper analyzes: it has the ``Parallel Sections`` construct,
event variables with ``post``/``wait``/``clear``, sequential ``if``/``loop``/
``while`` control flow, and integer/boolean scalar assignments.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import SourceSpan


class TokenKind(enum.Enum):
    """Lexical categories produced by :func:`repro.lang.lexer.tokenize`."""

    # Literals / identifiers
    INT = "INT"
    IDENT = "IDENT"

    # Keywords
    PROGRAM = "program"
    END = "end"
    EVENT = "event"
    IF = "if"
    THEN = "then"
    ELSE = "else"
    ENDIF = "endif"
    LOOP = "loop"
    ENDLOOP = "endloop"
    WHILE = "while"
    DO = "do"
    ENDWHILE = "endwhile"
    PARALLEL = "parallel"
    SECTIONS = "sections"
    SECTION = "section"
    POST = "post"
    WAIT = "wait"
    CLEAR = "clear"
    SKIP = "skip"
    TRUE = "true"
    FALSE = "false"
    NOT = "not"
    AND = "and"
    OR = "or"

    # Punctuation / operators
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    EQ = "=="
    NE = "/="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    # Layout
    NEWLINE = "NEWLINE"
    EOF = "EOF"


#: Keyword spelling (lower-case) -> token kind.  The lexer lower-cases
#: candidate identifiers before looking them up, so keywords are
#: case-insensitive, as in FORTRAN.
KEYWORDS = {
    kind.value: kind
    for kind in (
        TokenKind.PROGRAM,
        TokenKind.END,
        TokenKind.EVENT,
        TokenKind.IF,
        TokenKind.THEN,
        TokenKind.ELSE,
        TokenKind.ENDIF,
        TokenKind.LOOP,
        TokenKind.ENDLOOP,
        TokenKind.WHILE,
        TokenKind.DO,
        TokenKind.ENDWHILE,
        TokenKind.PARALLEL,
        TokenKind.SECTIONS,
        TokenKind.SECTION,
        TokenKind.POST,
        TokenKind.WAIT,
        TokenKind.CLEAR,
        TokenKind.SKIP,
        TokenKind.TRUE,
        TokenKind.FALSE,
        TokenKind.NOT,
        TokenKind.AND,
        TokenKind.OR,
    )
}


class Token(NamedTuple):
    """A single lexeme with its source span.

    ``value`` holds the decoded payload: an ``int`` for ``INT`` tokens, the
    (case-preserved) spelling for ``IDENT`` tokens, and ``None`` otherwise.
    """

    kind: TokenKind
    text: str
    span: SourceSpan
    value: object = None

    def __repr__(self) -> str:  # compact, useful in parser error paths
        payload = f"={self.value!r}" if self.value is not None else ""
        return f"Token({self.kind.name}{payload} @ {self.span})"
