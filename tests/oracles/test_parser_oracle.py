"""The parser against the reference recursive-descent parser.

Both must give the same AST (every dataclass field, spans and labels
included) or the same ``LangError`` (type, message and span) on every
input.  The reference reads the reference lexer's tokens, so the one
allowed difference is the lexer oracle's: a digit that ``str.isdigit``
accepts but ``int`` rejects (``²``) crashes the reference with
``ValueError`` where ``parse_program`` raises ``LexError``.
"""

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e import corpus
from repro.lang import parse_expression, parse_program
from repro.lang.errors import LangError, LexError
from repro.paper import SOURCES
from tests.regression.test_fault_matrix import DEEP_SRC, FAULTS

from .reference_parser import reference_parse_expression, reference_parse_program

ROOT = Path(__file__).resolve().parents[2]


def dump(node):
    """Every field of an AST, recursively, with the type of every leaf."""
    if dataclasses.is_dataclass(node):
        return (
            type(node).__name__,
            tuple((f.name, dump(getattr(node, f.name))) for f in dataclasses.fields(node)),
        )
    if isinstance(node, list):
        return [dump(item) for item in node]
    return (type(node).__name__, node)


def outcome(parse, source):
    try:
        return ("ast", dump(parse(source)))
    except LangError as exc:
        return (type(exc).__name__, exc.message, exc.span, str(exc))


def assert_same(source, parse=parse_program, reference=reference_parse_program):
    try:
        expected = outcome(reference, source)
    except ValueError:
        got = outcome(parse, source)
        assert got[0] == LexError.__name__ and got[1].startswith("invalid digit"), got
        return
    assert outcome(parse, source) == expected


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


@pytest.mark.parametrize("fault", sorted(f for f, row in FAULTS.items() if row[0] != DEEP_SRC))
def test_fault_matrix_sources(fault):
    # The long-sum and deep-unary rows parse to trees deeper than the
    # default stack; the recursive reference and ``dump`` need room.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        assert_same(FAULTS[fault][0])
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize(
    "source",
    [
        "program p\nx = a < b < c\nend",
        "program p\nx = not a < b < c\nend",
        "program p\nx = a and not b < c < d\nend",
        "program p\nx = a + not b\nend",
        "program p\nx = - not b\nend",
        "program p\nx = (a < b) < c\nend",
        "program p\n(1) parallel sections\n(2) section A\nx = 1\n(3) end parallel sections\nend",
        "program p\n(1) parallel do i\ny = i\n(2) end parallel do\nend",
        "program p\nparallel do i\ni = 1\nend parallel do\nend",
        "program p\nparallel sections\nend parallel sections\nend",
        "program p\nparallel sections\nsection a\nsection a\nend parallel sections\nend",
        "program p\nevent e, f, e\nend",
        "program p\n(x\nend",
        "program p\n(1 x = 1\nend",
        "program p\n(+) x = 1\nend",
        "program p\nif x then\n(3)\nend",
        "program p\n(9) end program\n\n",
        "\n\n  program p ; x = 1 ; end",
        "program p\nx = 1\nend\ny",
        "program",
        "",
    ],
)
def test_edge_inputs(source):
    assert_same(source)


KEYWORDS = [
    "program", "end", "event", "if", "then", "else", "endif", "loop", "endloop", "while",
    "do", "endwhile", "parallel", "sections", "section", "post", "wait", "clear", "skip",
    "true", "false", "not", "and", "or", "END", "Program",
]
TOKENS = KEYWORDS + [
    "(4)", "(L)", "(", ")", ",", "=", "==", "/=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%",
    "x", "y", "é", "1", "12", "²", "p", ";", "\n", "\r\n", "# c\n", "! c\n",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join))
def test_random_token_text(text):
    assert_same(text)
    assert_same(f"program p\n{text}\nend\n")


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(SOURCES)),
    st.integers(0, 10_000),
    st.integers(0, 3),
    st.lists(st.sampled_from(TOKENS), max_size=3).map(" ".join),
)
def test_edited_paper_figures(name, at, width, insert):
    """A paper figure with a few characters replaced by a few tokens."""
    source = SOURCES[name]
    at %= len(source) + 1
    assert_same(source[:at] + insert + source[at + width:])


ATOMS = ["x", "y", "1", "12", "true", "false"]
BINARY = ["or", "and", "==", "/=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"]

EXPRESSIONS = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(BINARY), inner).map(" ".join),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"not {e}"),
        inner.map(lambda e: f"-{e}"),
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS)
def test_random_expressions(text):
    assert_same(text, parse_expression, reference_parse_expression)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ATOMS + BINARY + ["not", "-", "(", ")", "\n"]), max_size=15))
def test_random_expression_token_text(words):
    assert_same(" ".join(words), parse_expression, reference_parse_expression)
