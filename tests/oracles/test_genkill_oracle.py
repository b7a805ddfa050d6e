"""``compute_genkill`` against the reference per-definition-pair version.

The local sets must be equal on every graph, and concurrency must be
decided at most once per pair of node classes.
"""

import pytest

from benchmarks.e2e import corpus
from repro import obs
from repro.lang import parse_program
from repro.paper import SOURCES
from repro.pfg import build_pfg
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


def classes(graph):
    return {(node.pardo_ids, node.section_path) for node in graph.nodes}


def check(program, monkeypatch):
    graph = build_pfg(program)
    expected = reference_genkill(graph)
    calls = []
    real = genkill.concurrent
    monkeypatch.setattr(genkill, "concurrent", lambda a, b: calls.append(1) or real(a, b))
    got = compute_genkill(graph)
    monkeypatch.setattr(genkill, "concurrent", real)
    assert got == expected
    k = len(classes(graph))
    assert len(calls) <= k * (k + 1) // 2


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_equal_to_reference(name, monkeypatch):
    check(PROGRAMS[name](), monkeypatch)


@pytest.mark.parametrize("workload", ["diamonds", "sync", "cyclic"])
def test_equal_on_e2e_corpus(workload, monkeypatch):
    for source in corpus.sources(corpus.build(workload, 0, corpus.SMOKE)):
        check(parse_program(source), monkeypatch)


def test_genkill_span_and_class_pairs():
    with obs.session() as sess:
        # a sequential program has one class, so one pair is decided
        compute_genkill(build_pfg(diamond_chain(8)))
        assert sess.metrics.counters["reachdefs.genkill.class_pairs"].value == 1
        compute_genkill(build_pfg(parse_program(SOURCES["fig3"])))
    assert sess.metrics.counters["reachdefs.genkill.class_pairs"].value > 2
    spans = [span for span, _ in sess.tracer.walk() if span.name == "genkill"]
    assert [span.attrs["class_pairs"] for span in spans][0] == 1
    assert len(spans) == 2
