"""Regex lexer for the mini-PCF language.

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
  folded into the match, and line/column are carried from the newlines.
"""

from __future__ import annotations

import re
from typing import List

from .errors import LexError, SourcePos, SourceSpan
from .tokens import KEYWORDS, Token, TokenKind

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


#: Builds a token, span or position from a field tuple without the
#: ``NamedTuple`` constructor's Python-level call: a source has thousands
#: of tokens and each needs four tuples.
_new = tuple.__new__


def _word_token(word: str, span: SourceSpan) -> Token:
    kind = KEYWORDS.get(word.lower())
    if kind is None:
        return _new(Token, (TokenKind.IDENT, word, span, word))
    return _new(Token, (kind, word, span, None))


def _split_word(text: str, line: int, column: int) -> List[Token]:
    """The tokens of a ``\\w+`` run outside the ASCII fast paths.

    A run can hold several tokens: ``12_x`` is ``12`` then ``_x``."""
    out: List[Token] = []
    while text:
        head = text[0]
        if head.isdigit():
            k = 1
            while k < len(text) and text[k].isdigit():
                k += 1
            digits = text[:k]
            if k < len(text) and text[k].isalpha():
                raise LexError(
                    f"malformed integer literal {digits + text[k]!r}",
                    SourceSpan(SourcePos(line, column), SourcePos(line, column + k)),
                )
            for i, ch in enumerate(digits):
                if not ch.isdecimal():
                    at = column + i
                    raise LexError(
                        f"invalid digit {ch!r} in integer literal",
                        SourceSpan(SourcePos(line, at), SourcePos(line, at + 1)),
                    )
            span = SourceSpan(SourcePos(line, column), SourcePos(line, column + k))
            out.append(Token(TokenKind.INT, digits, span, int(digits)))
        elif head.isalpha() or head == "_":
            k = len(text)
            out.append(_word_token(text, SourceSpan(SourcePos(line, column), SourcePos(line, column + k))))
        else:
            raise LexError(f"unexpected character {head!r}", SourceSpan.point(line, column))
        text = text[k:]
        column += k
    return out


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely, ending with a single ``EOF`` token;
    raises :class:`LexError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    line, line_start = 1, 0  # current line and the offset of its first character
    after_newline = True  # suppress leading and repeated NEWLINEs
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        if group is None:
            break
        start, end = m.span(group)
        column = start - line_start + 1
        if group == "newline":
            first = _new(SourcePos, (line, column))
            if source[start] == "\n":
                line += 1
                line_start = end
            if not after_newline:
                last = _new(SourcePos, (line, end - line_start + 1))
                append(_new(Token, (TokenKind.NEWLINE, "\\n", _new(SourceSpan, (first, last)), None)))
                after_newline = True
            continue
        if group == "word":
            tokens.extend(_split_word(m.group(group), line, column))
        elif group == "bad":
            raise LexError(f"unexpected character {m.group(group)!r}", SourceSpan.point(line, column))
        else:
            text = m.group(group)
            first = _new(SourcePos, (line, column))
            span = _new(SourceSpan, (first, _new(SourcePos, (line, end - line_start + 1))))
            if group == "ident":
                append(_word_token(text, span))
            elif group == "op":
                append(_new(Token, (_OPERATORS[text], text, span, None)))
            else:
                append(_new(Token, (TokenKind.INT, text, span, int(text))))
        after_newline = False
    end = SourcePos(line, len(source) - line_start + 1)
    if not after_newline:
        append(Token(TokenKind.NEWLINE, "\\n", SourceSpan(end, end)))
    append(Token(TokenKind.EOF, "<eof>", SourceSpan(end, end)))
    return tokens
