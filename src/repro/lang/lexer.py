"""Regex scanner for the mini-PCF language.

Design notes
------------
* The language is line-oriented: statements are separated by newlines (or
  ``;``).  Consecutive newlines collapse into one ``NEWLINE`` token and a
  leading newline is never emitted, which keeps the parser simple.
* Comments run from ``#`` or ``!`` to end of line (``!`` for FORTRAN
  flavour).
* Keywords are case-insensitive; identifiers preserve case.
* Character classes follow ``str``: an integer is a run of
  ``str.isdigit`` characters, a word starts with ``str.isalpha`` or ``_``
  and continues with ``str.isalnum`` or ``_`` (which is exactly ``\\w``).
  A digit that is not a decimal digit (``²``) is a :class:`LexError`.
* One compiled pattern is matched once per token; blanks and comments are
  folded into the match.
* :func:`scan` is the one scanner.  It returns a row
  ``(kind, text, value, start, end)`` per token, with ``start`` and
  ``end`` character offsets, plus the offsets at which lines start.  The
  parser reads the rows directly and builds a :class:`SourceSpan`
  (:func:`source_span`) only for the tokens an AST node or an error
  keeps; :func:`tokenize` builds a :class:`Token` with its span for every
  row.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Callable, List, Tuple

from .errors import LexError, SourcePos, SourceSpan
from .tokens import KEYWORDS, Token, TokenKind

#: One token: kind, text, decoded value, start and end offsets.
Row = Tuple[TokenKind, str, object, int, int]

_OPERATORS = {
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    "=": TokenKind.ASSIGN,
    "==": TokenKind.EQ,
    "/=": TokenKind.NE,  # FORTRAN-style "not equal"
    "<": TokenKind.LT,
    "<=": TokenKind.LE,
    ">": TokenKind.GT,
    ">=": TokenKind.GE,
}

#: Skipped blanks and comment, then one token; matches empty only at the
#: end of the source.
_TOKEN = re.compile(
    r"""[\ \t\r]*(?:[#!][^\n]*)?
    (?:(?P<newline>[\n;])
      |(?P<int>[0-9]+)(?!\w)       # ASCII digits, not followed by a word character
      |(?P<ident>[A-Za-z_]\w*)
      |(?P<word>\w+)               # any other word: see _split_word()
      |(?P<op>[=/<>]=|[-+*/%(),=<>])
      |(?P<bad>.)
    )?""",
    re.VERBOSE,
)

_IDENT = TokenKind.IDENT
_INT = TokenKind.INT
_NEWLINE = TokenKind.NEWLINE

#: Builds a token, span or position from a field tuple without the
#: ``NamedTuple`` constructor's Python-level call.
_new = tuple.__new__


def _position(lines: List[int], offset: int) -> SourcePos:
    """Line and column of ``offset``, given the offsets at which lines start."""
    line = bisect_right(lines, offset)
    return _new(SourcePos, (line, offset - lines[line - 1] + 1))


def source_span(lines: List[int], start: int, end: int) -> SourceSpan:
    """The span between two offsets, ``start <= end``.  A span that ends
    on the line it starts on, as a statement's span mostly does, takes
    one bisect."""
    line = bisect_right(lines, start)
    first = lines[line - 1]
    head = _new(SourcePos, (line, start - first + 1))
    if line < len(lines) and end >= lines[line]:
        return _new(SourceSpan, (head, _position(lines, end)))
    return _new(SourceSpan, (head, _new(SourcePos, (line, end - first + 1))))


def _word_row(word: str, start: int, end: int) -> Row:
    kind = KEYWORDS.get(word.lower())
    if kind is None:
        return (_IDENT, word, word, start, end)
    return (kind, word, None, start, end)


def _split_word(text: str, base: int, lines: List[int], append: Callable[[Row], None]) -> None:
    """Append the rows of a ``\\w+`` run at offset ``base`` that the ASCII
    fast paths do not take.

    A run can hold several tokens: ``12_x`` is ``12`` then ``_x``."""
    i, n = 0, len(text)
    while i < n:
        head = text[i]
        if head.isdigit():
            k = i + 1
            while k < n and text[k].isdigit():
                k += 1
            digits = text[i:k]
            if k < n and text[k].isalpha():
                raise LexError(
                    f"malformed integer literal {digits + text[k]!r}",
                    source_span(lines, base + i, base + k),
                )
            for j, ch in enumerate(digits):
                if not ch.isdecimal():
                    at = base + i + j
                    raise LexError(
                        f"invalid digit {ch!r} in integer literal", source_span(lines, at, at + 1)
                    )
            append((_INT, digits, int(digits), base + i, base + k))
        elif head.isalpha() or head == "_":
            k = n
            append(_word_row(text[i:], base + i, base + k))
        else:
            raise LexError(f"unexpected character {head!r}", source_span(lines, base + i, base + i))
        i = k


def scan(source: str) -> Tuple[List[Row], List[int]]:
    """Scan ``source`` completely into rows ending with a single ``EOF``
    row, and the offsets at which its lines start; raises
    :class:`LexError` on bad input."""
    rows: List[Row] = []
    append = rows.append
    lines = [0]
    after_newline = True  # suppress leading and repeated NEWLINEs
    keyword = KEYWORDS.get
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        if group is None:
            break
        start, end = m.start(group), m.end()  # the token ends the match
        if group == "ident":
            text = source[start:end]
            kind = keyword(text.lower())
            if kind is None:
                append((_IDENT, text, text, start, end))
            else:
                append((kind, text, None, start, end))
        elif group == "op":
            text = source[start:end]
            append((_OPERATORS[text], text, None, start, end))
        elif group == "newline":
            if source[start] == "\n":
                lines.append(end)
            if not after_newline:
                append((_NEWLINE, "\\n", None, start, end))
                after_newline = True
            continue
        elif group == "int":
            text = source[start:end]
            append((_INT, text, int(text), start, end))
        elif group == "word":
            _split_word(source[start:end], start, lines, append)
        else:
            raise LexError(f"unexpected character {source[start]!r}", source_span(lines, start, start))
        after_newline = False
    end = len(source)
    if not after_newline:
        append((_NEWLINE, "\\n", None, end, end))
    append((TokenKind.EOF, "<eof>", None, end, end))
    return rows, lines


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely, ending with a single ``EOF`` token;
    raises :class:`LexError` on bad input."""
    rows, lines = scan(source)
    return [
        _new(Token, (kind, text, source_span(lines, start, end), value))
        for kind, text, value, start, end in rows
    ]
