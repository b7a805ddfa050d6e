"""``compute_genkill`` against the reference per-definition-pair version.

The local sets must be equal on every graph, and built without one
``concurrent()`` query: bit ``d`` of ``concurrent_defs(n)``, read off the
labels, must be ``concurrent(n, def_node[d])``.  The lazy views must
behave as the reference's eager dicts (order, ``len``, ``in``, ``==``,
``dict``, ``pickle``, ``deepcopy``), fresh and half-read.
"""

import copy
import pickle

import pytest

from benchmarks.e2e import corpus
from repro.lang import parse_program
from repro.paper import SOURCES
from repro import obs, optimize
from repro.pfg import build_pfg, concurrency
from repro.pfg.concurrency import concurrent
from repro.reachdefs import genkill
from repro.reachdefs.genkill import compute_genkill
from repro.synthetic import (
    diamond_chain,
    fig3_repeated,
    nested_parallel,
    par_diamond_loop,
    par_loop_chain,
    pardo_grid,
    random_mix,
    sync_pipeline,
    wide_parallel,
)

from .reference_genkill import reference_genkill

PARDO_IN_SECTIONS = """program mixed
(1) x = 0
(2) parallel sections
  (3) section a
    (3) x = 1
    (4) parallel do i
      (5) x = x + i
      (5) y = x
    (6) end parallel do
  (7) section b
    (7) y = 2
    (7) x = y
(8) end parallel sections
(8) z = x + y
end
"""

PROGRAMS = {
    **{name: lambda src=src: parse_program(src) for name, src in SOURCES.items()},
    "diamond12": lambda: diamond_chain(12),
    "pdloop4x3": lambda: par_diamond_loop(4, 3),
    "plchain3x4": lambda: par_loop_chain(3, 4),
    "fig3x4": lambda: fig3_repeated(4),
    "syncpipe6": lambda: sync_pipeline(6),
    "nested3": lambda: nested_parallel(3),
    "wide4x3": lambda: wide_parallel(4, 3),
    "pardo3x4": lambda: pardo_grid(3, 4),
    "pardo-in-sections": lambda: parse_program(PARDO_IN_SECTIONS),
    **{f"mix{seed}": lambda seed=seed: random_mix(seed, 40 + seed) for seed in range(50)},
}


TABLES = ("gen", "kill", "parallel_kill", "other_defs")


def check(program, monkeypatch):
    graph = build_pfg(program)
    expected = reference_genkill(graph)
    calls = []
    for module in (concurrency, genkill):
        if hasattr(module, "concurrent"):
            monkeypatch.setattr(module, "concurrent", lambda a, b: calls.append(1) or concurrent(a, b))
    got = compute_genkill(graph)
    monkeypatch.undo()
    assert calls == []
    for table in TABLES:
        assert getattr(got, table) == getattr(expected, table), table
    assert got.def_node == expected.def_node
    assert got.own == {n: frozenset(n.defs) for n in graph.nodes}
    for node in graph.nodes:
        want = 0
        for d in graph.defs:
            if concurrent(node, expected.def_node[d]):
                want |= 1 << d.index
        assert got.concurrent_defs(node) == want, node.name


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_equal_to_reference(name, monkeypatch):
    check(PROGRAMS[name](), monkeypatch)


@pytest.mark.parametrize("workload", ["diamonds", "sync", "cyclic"])
def test_equal_on_e2e_corpus(workload, monkeypatch):
    for source in corpus.sources(corpus.build(workload, 0, corpus.SMOKE)):
        check(parse_program(source), monkeypatch)


def by_name(rows):
    return {n.name: sorted(d.name for d in row) for n, row in rows.items()}


def check_views(graph, info, expected):
    for table in TABLES:
        rows, want = getattr(info, table), getattr(expected, table)
        assert list(rows) == list(want) == list(graph.nodes)
        assert len(rows) == len(want)
        assert all(n in rows for n in graph.nodes) and "nope" not in rows
        assert rows == want and dict(rows) == want
        assert all(isinstance(rows[n], frozenset) for n in graph.nodes)


@pytest.mark.parametrize("name", ["fig3", "fig6", "fig9", "pardo-in-sections", "nested3", "mix7"])
def test_views_behave_as_the_reference_dicts(name):
    graph = build_pfg(PROGRAMS[name]())
    expected = reference_genkill(graph)
    fresh, half_read = genkill._local_sets(graph), genkill._local_sets(graph)
    for table in TABLES:
        rows = getattr(half_read, table)
        for n in graph.nodes[::2]:
            rows[n]
    assert not any(getattr(fresh, table)._rows for table in TABLES)
    for info in (fresh, half_read):
        twins = (pickle.loads(pickle.dumps(info)), copy.deepcopy(info))
        check_views(graph, info, expected)
        for twin in twins:
            assert [n.name for n in twin.gen] == [n.name for n in graph.nodes]
            for table in TABLES:
                assert by_name(getattr(twin, table)) == by_name(getattr(expected, table))
            assert [twin.concurrent_defs(n) for n in twin.gen] == [
                info.concurrent_defs(n) for n in graph.nodes
            ]


def test_rows_decode_once_on_first_read():
    graph = build_pfg(fig3_repeated(3))
    with obs.session() as sess:

        def decoded():
            counter = sess.metrics.counters.get("reachdefs.genkill.rows")
            return counter.value if counter is not None else 0

        info = compute_genkill(graph)
        assert decoded() == 0
        half = graph.nodes[: len(graph.nodes) // 2]
        for _ in range(2):
            for n in half:
                info.kill[n]
        assert decoded() == len(half)
        dict(info.kill)
        assert decoded() == len(graph.nodes)
        # the bitset pipeline reads masks: no analysis decodes a row
        optimize(parse_program(SOURCES["fig9"]))
        assert decoded() == len(graph.nodes)


def test_genkill_span_and_classes():
    with obs.session() as sess:
        # a sequential program has one class
        compute_genkill(build_pfg(diamond_chain(8)))
        assert sess.metrics.counters["reachdefs.genkill.classes"].value == 1
        compute_genkill(build_pfg(parse_program(SOURCES["fig3"])))
    assert sess.metrics.counters["reachdefs.genkill.classes"].value > 2
    spans = [span for span, _ in sess.tracer.walk() if span.name == "genkill"]
    assert [span.attrs["classes"] for span in spans][0] == 1
    assert len(spans) == 2
