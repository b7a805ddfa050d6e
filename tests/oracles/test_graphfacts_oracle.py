"""Graph facts read off ``GraphIndex`` against the per-module walkers.

Reverse postorder, back edges, forward predecessors, natural loops,
MustDone, mutual exclusion, forward reachability, Preserved sets (and
their pass count) and sync-lint issues must equal the reference
computations in ``reference_graphfacts``, compared by node name.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from benchmarks.e2e import corpus
from repro.analysis import compute_must_done, find_loops, lint_synchronization, loop_body
from repro.lang import parse_program
from repro.paper import SOURCES
from repro.pfg import build_pfg, mutually_exclusive
from repro.reachdefs.preserved import compute_preserved
from repro.synthetic import (
    fig3_repeated,
    nested_parallel,
    par_loop_chain,
    pardo_grid,
    sync_pipeline,
)

from ..property.conftest import generated_programs
from .reference_graphfacts import (
    reference_dfs,
    reference_find_loops,
    reference_forward_control_preds,
    reference_forward_reachable,
    reference_forward_reaches,
    reference_lint,
    reference_must_done,
    reference_mutually_exclusive,
    reference_preserved,
)

ROOT = Path(__file__).resolve().parents[2]

#: Graphs up to this many nodes also compare every node pair and every
#: node's reachability; larger ones compare the pairs of posts.
ALL_PAIRS_NODES = 40

SHAPES = {
    **{f"fig3x{n}": lambda n=n: fig3_repeated(n) for n in (1, 3, 6)},
    **{f"syncpipe{n}": lambda n=n: sync_pipeline(n) for n in (2, 5, 12)},
    **{f"plchain{k}x{m}": lambda k=k, m=m: par_loop_chain(k, m) for k, m in ((1, 2), (3, 4))},
    **{f"pardo{k}x{m}": lambda k=k, m=m: pardo_grid(k, m) for k, m in ((1, 1), (3, 4))},
    **{f"nested{d}": lambda d=d: nested_parallel(d) for d in (1, 3, 5)},
}


def names(nodes):
    return tuple(n.name for n in nodes)


def name_set(nodes):
    return frozenset(n.name for n in nodes)


def name_map(mapping):
    return {n.name: name_set(s) for n, s in mapping.items()}


def issues(found):
    return [(i.kind, i.event, i.node.name if i.node is not None else None) for i in found]


def check(graph):
    rpo, back = reference_dfs(graph)
    assert names(graph.reverse_postorder()) == names(rpo)
    assert {(a.name, b.name) for a, b in graph.back_edges()} == {(a.name, b.name) for a, b in back}
    for node in graph.nodes:
        assert names(graph.forward_control_preds(node)) == names(
            reference_forward_control_preds(graph, node, back)
        )

    loops = reference_find_loops(graph, back)
    assert [(l.header.name, l.latch.name, name_set(l.body)) for l in find_loops(graph)] == [
        (h.name, l.name, name_set(b)) for h, l, b in loops
    ]
    for header, latch, body in loops:
        assert name_set(loop_body(graph, latch, header)) == name_set(body)

    assert name_map(compute_must_done(graph)) == name_map(reference_must_done(graph))

    pairs = [(a, b) for a in graph.posts for b in graph.posts]
    if len(graph.nodes) <= ALL_PAIRS_NODES:
        pairs = [(a, b) for a in graph.nodes for b in graph.nodes]
        index = graph.index()
        for node in graph.nodes:
            expected = reference_forward_reachable(graph, back, [node])
            got = {m for m in graph.nodes if index.sync_reach[node.id] >> m.id & 1}
            assert name_set(got) == name_set(expected), node.name
            for other in graph.nodes:
                assert bool(index.control_reach[node.id] >> other.id & 1) == (
                    reference_forward_reaches(graph, back, node, other)
                ), (node.name, other.name)
    for a, b in pairs:
        assert mutually_exclusive(graph, a, b) == reference_mutually_exclusive(graph, back, a, b), (
            a.name,
            b.name,
        )

    preserved, passes = reference_preserved(graph)
    result = compute_preserved(graph)
    assert name_map(result.preserved) == name_map(preserved)
    assert result.passes == passes

    assert issues(lint_synchronization(graph)) == issues(reference_lint(graph))


@pytest.mark.parametrize("workload", ["diamonds", "sync", "cyclic", "edits", "serve"])
@pytest.mark.parametrize("seed", [0, 1])
def test_e2e_corpus_sources(workload, seed):
    for source in corpus.sources(corpus.build(workload, seed)):
        check(build_pfg(parse_program(source)))


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_paper_figures(name):
    check(build_pfg(parse_program(SOURCES[name])))


@pytest.mark.parametrize("path", sorted((ROOT / "examples").glob("*.pcf")), ids=lambda p: p.name)
def test_examples(path):
    check(build_pfg(parse_program(path.read_text())))


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_synthetic_shapes(name):
    check(build_pfg(SHAPES[name]()))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generated_programs(with_sync=True))
def test_generated_programs(program):
    check(build_pfg(program))
