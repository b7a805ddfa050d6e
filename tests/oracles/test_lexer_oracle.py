"""``tokenize`` against the reference char-by-char scanner.

Both must give the same token stream (kind, text, value, span) or the
same ``LexError`` (message and span) on every input.  The one allowed
difference is a digit that ``str.isdigit`` accepts but ``int`` rejects
(``²``): the reference crashes with ``ValueError``, ``tokenize`` raises
``LexError``.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e import corpus
from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.paper import SOURCES

from .reference_lexer import reference_tokenize

ROOT = Path(__file__).resolve().parents[2]


def outcome(lex, source):
    try:
        tokens = lex(source)
    except LexError as exc:
        return ("LexError", exc.message, exc.span)
    return ("tokens", [(t.kind, t.text, t.value, type(t.value), t.span) for t in tokens])


def assert_same(source):
    try:
        expected = outcome(reference_tokenize, source)
    except ValueError:
        got = outcome(tokenize, source)
        assert got[0] == "LexError" and got[1].startswith("invalid digit"), got
        bad = got[1].split()[2].strip("'")
        assert bad.isdigit() and not bad.isdecimal(), got
        return
    assert outcome(tokenize, source) == expected


@pytest.mark.parametrize("workload", ["diamonds", "sync", "cyclic", "edits", "serve"])
@pytest.mark.parametrize("seed", [0, 1])
def test_e2e_corpus_sources(workload, seed):
    for source in corpus.sources(corpus.build(workload, seed)):
        assert_same(source)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_paper_figures(name):
    assert_same(SOURCES[name])


@pytest.mark.parametrize("path", sorted((ROOT / "examples").glob("*.pcf")), ids=lambda p: p.name)
def test_examples(path):
    assert_same(path.read_text())


@pytest.mark.parametrize(
    "source",
    [
        "x = 1²", "x = ²", "x = 1²a", "x = ²3", "x = ٣", "x = １２", "x = ½", "x = ⅷ",
        "x = 1½", "x = a½ⅷ²", "ǅ = é_1", "x = 12_y", "x = 12ab", "_ = 3\r\n;;y=1",
        "a /= b == c", "x = 1 ! c\n# d\n", "x = $", "x\x0b= 1", "", ";", "\n\n",
    ],
)
def test_edge_inputs(source):
    assert_same(source)


ALPHABET = list("٣１２½ⅷǅé_\r;#!²") + ["/=", "==", "<=", ">=", "\n", " ", "\t"] + list(
    "ax0912(),+-*/%=<>$."
) + ["if", "Then", "program", "x_1", "12"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join))
def test_random_text(source):
    assert_same(source)
