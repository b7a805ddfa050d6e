"""Graph container tests: adjacency views, traversal, back edges, and the
lifetime of the graph index."""

import gc
import weakref

import pytest

from benchmarks.e2e import corpus
from repro import optimize
from repro.analysis import find_induction_variables, find_loops, lint_synchronization
from repro.lang import parse_program
from repro.paper import SOURCES
from repro.pfg import EdgeKind, NodeKind, ParallelFlowGraph, build_pfg, mutually_exclusive
from repro.reachdefs.preserved import compute_preserved
from repro.synthetic import diamond_chain


def test_duplicate_edges_ignored():
    g = ParallelFlowGraph("t")
    a = g.new_node(NodeKind.BASIC, "a")
    b = g.new_node(NodeKind.BASIC, "b")
    g.add_edge(a, b, EdgeKind.SEQ)
    g.add_edge(a, b, EdgeKind.SEQ)
    assert g.succs(a) == [b]


def test_same_endpoints_different_kind_both_kept():
    g = ParallelFlowGraph("t")
    a = g.new_node(NodeKind.BASIC, "a")
    b = g.new_node(NodeKind.BASIC, "b")
    g.add_edge(a, b, EdgeKind.SEQ)
    g.add_edge(a, b, EdgeKind.SYNC)
    assert len(g.out_edges(a)) == 2


def test_pred_families_split_by_kind(fig3_graph):
    g = fig3_graph
    n8 = g.node("8")
    assert {p.name for p in g.sync_preds(n8)} == {"4", "5"}
    assert {p.name for p in g.par_preds(n8)} == {"7"}
    assert g.seq_preds(n8) == []
    assert {p.name for p in g.all_preds(n8)} == {"4", "5", "7"}


def test_control_preds_exclude_sync(fig3_graph):
    g = fig3_graph
    assert {p.name for p in g.control_preds(g.node("8"))} == {"7"}


def test_node_lookup_by_name(fig3_graph):
    assert fig3_graph.node("11").kind is NodeKind.JOIN
    with pytest.raises(KeyError):
        fig3_graph.node("nope")


def test_rpo_starts_at_entry_and_respects_edges(fig3_graph):
    rpo = fig3_graph.reverse_postorder()
    assert rpo[0] is fig3_graph.entry
    pos = {n: i for i, n in enumerate(rpo)}
    back = fig3_graph.back_edges()
    for src, dst, kind in fig3_graph.edges():
        if kind is EdgeKind.SYNC or (src, dst) in back:
            continue
        assert pos[src] < pos[dst], f"{src.name} should precede {dst.name}"


def test_back_edges_found(fig3_graph):
    assert {(a.name, b.name) for a, b in fig3_graph.back_edges()} == {("12", "1")}


def test_forward_control_preds_drop_back_edge(fig3_graph):
    g = fig3_graph
    preds = g.forward_control_preds(g.node("1"))
    assert {p.name for p in preds} == {"Entry"}


def test_no_back_edges_in_dag():
    g = build_pfg(parse_program("program p\nif c then\nx=1\nendif\nend"))
    assert g.back_edges() == set()


def test_document_order_is_creation_order(fig3_graph):
    assert [n.id for n in fig3_graph.document_order()] == list(range(len(fig3_graph)))


def test_edge_count_by_kind(fig3_graph):
    assert fig3_graph.edge_count((EdgeKind.SYNC,)) == 2
    total = fig3_graph.edge_count()
    assert total == len(list(fig3_graph.edges()))


def test_names_unique(fig3_graph):
    names = fig3_graph.names()
    assert len(set(names)) == len(names)


def test_describe_mentions_every_node(fig3_graph):
    text = fig3_graph.describe()
    for n in fig3_graph.nodes:
        assert f"[{n.name}:" in text


BRANCHES = """program p
(1) x = 1
if c then
  (2) x = 2
else
  (3) x = 3
endif
(4) y = x
end"""


def test_queried_graph_is_freed_without_the_cycle_collector():
    graph = build_pfg(parse_program(SOURCES["fig3"]))
    gc.disable()
    try:
        compute_preserved(graph)
        lint_synchronization(graph)
        find_loops(graph)
        mutually_exclusive(graph, graph.node("4"), graph.node("5"))
        ref = weakref.ref(graph)
        del graph
        assert ref() is None
    finally:
        gc.enable()


def test_add_edge_refreshes_the_index():
    g = build_pfg(parse_program(BRANCHES))
    n1, n2, n3, n4 = (g.node(name) for name in "1234")
    assert g.back_edges() == frozenset()
    assert find_loops(g) == []
    assert mutually_exclusive(g, n2, n3)

    g.add_edge(n4, n1, EdgeKind.SEQ)
    assert g.back_edges() == {(n4, n1)}
    assert [(loop.header, loop.latch) for loop in find_loops(g)] == [(n1, n4)]
    assert mutually_exclusive(g, n2, n3)

    g.add_edge(n2, n3, EdgeKind.SEQ)
    assert not mutually_exclusive(g, n2, n3)


def test_index_views_are_immutable(fig3_graph):
    assert isinstance(fig3_graph.back_edges(), frozenset)
    assert isinstance(fig3_graph.reverse_postorder(), tuple)
    for node in fig3_graph.nodes:
        assert isinstance(fig3_graph.forward_control_preds(node), tuple)


def test_program_without_posts_builds_no_reachability():
    report = optimize(diamond_chain(6))
    built = vars(report.result.graph.index())
    assert "control_reach" not in built and "sync_reach" not in built


WHILE = """program p
(1) i = 0
(2) while i < 10 do
  (3) i = i + 1
(4) endwhile
end"""


def _corpus_graphs():
    for source in SOURCES.values():
        yield build_pfg(parse_program(source))
    for workload in ("diamonds", "sync", "cyclic", "edits", "serve"):
        for source in corpus.sources(corpus.build(workload, 0, corpus.SMOKE)):
            yield build_pfg(parse_program(source))


def test_graphs_without_loop_headers_have_no_back_edges():
    """On the paper figures and every e2e smoke corpus, the retreating-edge
    flag find_loops tests is set exactly when the DFS finds a back edge.
    These programs close loops only with ``loop``, whose header ends in an
    implicit branch, so a graph without an implicit branch has no back
    edge here; the flag is no loop test in general (see the while test
    below)."""
    for graph in _corpus_graphs():
        back = graph.back_edges()
        if not any(node.implicit_branch for node in graph.nodes):
            assert not back, graph.program_name
        assert graph.has_retreating_edge == bool(back), graph.program_name


def test_a_while_loop_has_a_back_edge_but_no_loop_header():
    """A while header branches on its condition, so no block of a while
    loop has an implicit branch, yet the loop has a back edge: the loop
    test reads the retreating-edge flag, not ``implicit_branch``."""
    graph = build_pfg(parse_program(WHILE))
    assert not any(node.implicit_branch for node in graph.nodes)
    assert graph.has_retreating_edge and graph.back_edges()
    result = optimize(WHILE).result
    assert [iv.var for iv in find_induction_variables(result)] == ["i"]


def test_loop_free_sync_free_optimize_builds_no_graph_index():
    """Nothing in optimize needs the graph index of a program without
    loops or post/wait: sync lint and the loop finder return early."""
    for program in (diamond_chain(6), parse_program(BRANCHES), parse_program(SOURCES["fig5b"])):
        report = optimize(program)
        graph = report.result.graph
        assert not graph.has_retreating_edge and not graph.posts_of_event
        assert graph._index is None, program.name
