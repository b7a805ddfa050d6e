"""Lexer unit tests."""

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import _OPERATORS, tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def test_empty_source_yields_only_eof():
    assert kinds("") == [TokenKind.EOF]


def test_whitespace_only_yields_only_eof():
    assert kinds("   \n\t \n  ") == [TokenKind.EOF]


def test_simple_assignment():
    assert kinds("x = 1") == [
        TokenKind.IDENT,
        TokenKind.ASSIGN,
        TokenKind.INT,
        TokenKind.NEWLINE,
        TokenKind.EOF,
    ]


def test_int_literal_value():
    tok = tokenize("42")[0]
    assert tok.kind is TokenKind.INT
    assert tok.value == 42


def test_keywords_case_insensitive():
    assert kinds("PROGRAM Program program")[:3] == [TokenKind.PROGRAM] * 3


def test_identifier_preserves_case():
    tok = tokenize("CamelCase")[0]
    assert tok.kind is TokenKind.IDENT
    assert tok.value == "CamelCase"


def test_identifier_with_underscore_and_digits():
    tok = tokenize("v_1x")[0]
    assert tok.kind is TokenKind.IDENT
    assert tok.text == "v_1x"


def test_all_operators():
    # note: "!" opens a comment (FORTRAN style), so "/=" is the only
    # not-equal spelling.
    src = "+ - * / % ( ) , == /= < <= > >= ="
    expected = [
        TokenKind.PLUS, TokenKind.MINUS, TokenKind.STAR, TokenKind.SLASH,
        TokenKind.PERCENT, TokenKind.LPAREN, TokenKind.RPAREN, TokenKind.COMMA,
        TokenKind.EQ, TokenKind.NE, TokenKind.LT, TokenKind.LE,
        TokenKind.GT, TokenKind.GE, TokenKind.ASSIGN,
    ]
    assert kinds(src)[: len(expected)] == expected


def test_operator_kinds_are_spelled_as_lexed():
    # Parse errors name an expected kind by its value, so the value must be
    # the spelling the lexer reads ("!" would open a comment).
    for kind in _OPERATORS.values():
        assert _OPERATORS[kind.value] is kind


def test_hash_comment_ignored():
    assert kinds("x = 1 # a comment\n") == kinds("x = 1\n")


def test_bang_comment_ignored():
    assert kinds("x = 1 ! FORTRAN flavour\n") == kinds("x = 1\n")


def test_comment_only_line_produces_no_tokens():
    assert kinds("# nothing here\n") == [TokenKind.EOF]


def test_consecutive_newlines_collapse():
    toks = kinds("a = 1\n\n\n\nb = 2")
    assert toks.count(TokenKind.NEWLINE) == 2


def test_semicolon_acts_as_newline():
    toks = kinds("a = 1; b = 2")
    assert toks.count(TokenKind.NEWLINE) == 2


def test_leading_newlines_suppressed():
    assert kinds("\n\nx = 1")[0] is TokenKind.IDENT


def test_trailing_newline_synthesized():
    toks = kinds("x = 1")
    assert toks[-2] is TokenKind.NEWLINE


def test_spans_track_lines_and_columns():
    toks = tokenize("a = 1\nbb = 2")
    bb = [t for t in toks if t.text == "bb"][0]
    assert bb.span.start.line == 2
    assert bb.span.start.column == 1
    assert bb.span.end.column == 3


def test_unexpected_character_raises():
    with pytest.raises(LexError):
        tokenize("x = $")


def test_malformed_int_raises():
    with pytest.raises(LexError):
        tokenize("x = 12ab")


def test_fortran_not_equal():
    toks = tokenize("a /= b")
    assert toks[1].kind is TokenKind.NE


def test_slash_alone_is_division():
    toks = tokenize("a / b")
    assert toks[1].kind is TokenKind.SLASH


def test_boolean_and_logic_keywords():
    assert kinds("true false and or not")[:5] == [
        TokenKind.TRUE, TokenKind.FALSE, TokenKind.AND, TokenKind.OR, TokenKind.NOT,
    ]


def test_sync_keywords():
    assert kinds("post wait clear event")[:4] == [
        TokenKind.POST, TokenKind.WAIT, TokenKind.CLEAR, TokenKind.EVENT,
    ]


@pytest.mark.parametrize("source, column", [("x = \u00b2", 5), ("x = 1\u00b2", 6), ("x = 1\u00b23", 6)])
def test_non_decimal_digit_is_a_lex_error(source, column):
    # "\u00b2" passes str.isdigit but int() rejects it
    with pytest.raises(LexError) as info:
        tokenize(source)
    assert info.value.span.start == (1, column)
    assert info.value.span.end == (1, column + 1)
    assert "invalid digit" in info.value.message


def test_unicode_decimal_digits_are_integers():
    tok = tokenize("\u0663\uff11\uff12")[0]
    assert tok.kind is TokenKind.INT
    assert tok.value == 312


def test_word_run_splits_after_integer():
    toks = tokenize("12_x")
    assert [(t.kind, t.text) for t in toks[:2]] == [(TokenKind.INT, "12"), (TokenKind.IDENT, "_x")]
    assert toks[1].span.start.column == 3


def test_token_and_span_values():
    from repro.lang.errors import SourcePos, SourceSpan
    from repro.lang.tokens import Token

    span = SourceSpan(start=SourcePos(line=1, column=5), end=SourcePos(line=1, column=6))
    tok = Token(kind=TokenKind.IDENT, text="x", span=span, value="x")
    assert tokenize("x = x")[2] == tok
    assert repr(tok) == "Token(IDENT='x' @ 1:5)"
    assert repr(span.start) == "SourcePos(line=1, column=5)"
    assert str(span) == "1:5"
    assert SourcePos(1, 9) < SourcePos(2, 1)
    assert span.merge(SourceSpan.point(3, 2)) == SourceSpan(SourcePos(1, 5), SourcePos(3, 2))
