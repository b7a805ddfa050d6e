"""May-happen-in-parallel and mutual-exclusion tests."""

from repro.lang import parse_program
from repro.pfg import build_pfg
from repro.pfg.concurrency import concurrent, mutually_exclusive


def test_fig3_concurrency(fig3_graph):
    g = fig3_graph
    n = {name: g.node(name) for name in g.names()}
    # Section A vs section B of the outer construct.
    assert concurrent(n["3"], n["7"])
    assert concurrent(n["4"], n["8"])
    assert concurrent(n["6"], n["9"])
    # Inner sections B1 vs B2.
    assert concurrent(n["8"], n["9"])
    # Same thread: never concurrent.
    assert not concurrent(n["4"], n["5"])
    assert not concurrent(n["3"], n["6"])
    # Fork/join/outside nodes are not concurrent with anything inside.
    assert not concurrent(n["2"], n["3"])
    assert not concurrent(n["11"], n["8"])
    assert not concurrent(n["Entry"], n["9"])


def test_node_not_concurrent_with_itself(fig3_graph):
    for node in fig3_graph.nodes:
        assert not concurrent(node, node)


def test_concurrency_symmetric(fig3_graph):
    nodes = fig3_graph.nodes
    for a in nodes:
        for b in nodes:
            assert concurrent(a, b) == concurrent(b, a)


def test_inner_fork_concurrent_with_sibling_section(fig3_graph):
    g = fig3_graph
    # node 7 (inner fork) lives in section B, concurrent with section A.
    assert concurrent(g.node("7"), g.node("4"))


def test_mutually_exclusive_branches(fig3_graph):
    g = fig3_graph
    # if-branches 4 and 5: mutually exclusive.
    assert mutually_exclusive(g, g.node("4"), g.node("5"))
    # ordered nodes are not.
    assert not mutually_exclusive(g, g.node("3"), g.node("6"))
    # concurrent nodes are not.
    assert not mutually_exclusive(g, g.node("4"), g.node("8"))
    # a node with itself is not.
    assert not mutually_exclusive(g, g.node("4"), g.node("4"))


def test_nested_concurrency_three_sections():
    src = """program p
parallel sections
  section A
    (a) x = 1
  section B
    (b) y = 2
  section C
    (c) z = 3
end parallel sections
end"""
    g = build_pfg(parse_program(src))
    a, b, c = g.node("a"), g.node("b"), g.node("c")
    assert concurrent(a, b) and concurrent(b, c) and concurrent(a, c)


def test_sequential_constructs_not_concurrent():
    src = """program p
parallel sections
  section A
    (a) x = 1
  section B
    (b) y = 2
end parallel sections
parallel sections
  section C
    (c) z = 3
  section D
    (d) w = 4
end parallel sections
end"""
    g = build_pfg(parse_program(src))
    assert not concurrent(g.node("a"), g.node("c"))
    assert not concurrent(g.node("b"), g.node("d"))
    assert concurrent(g.node("c"), g.node("d"))


def test_nested_inherits_outer_concurrency():
    src = """program p
parallel sections
  section OUTER_A
    (a) x = 1
  section OUTER_B
    parallel sections
      section INNER_1
        (i1) y = 2
      section INNER_2
        (i2) z = 3
    end parallel sections
end parallel sections
end"""
    g = build_pfg(parse_program(src))
    # inner nodes are concurrent with the sibling outer section...
    assert concurrent(g.node("a"), g.node("i1"))
    assert concurrent(g.node("a"), g.node("i2"))
    # ...and with each other.
    assert concurrent(g.node("i1"), g.node("i2"))
