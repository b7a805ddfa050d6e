"""Available-expressions tests (forward must-analysis, parallel rules)."""

import pytest

from repro.analysis.availexpr import (
    find_redundant_computations,
    interesting_expressions,
    solve_available_expressions,
)
from repro.lang import ast, parse_expression, parse_program
from repro.pfg import build_pfg


def solve(src):
    graph = build_pfg(parse_program(src))
    return graph, solve_available_expressions(graph)


A_PLUS_B = ast.BinOp("+", ast.Var("a"), ast.Var("b"))


def test_universe_collects_nontrivial_expressions():
    graph = build_pfg(parse_program("program p\n(1) x = a + b\n(2) y = 5\n(3) z = x\nend"))
    universe = interesting_expressions(graph)
    assert A_PLUS_B in universe
    assert len(universe) == 1  # literals and bare variables excluded


def test_straightline_availability():
    g, r = solve("program p\n(1) x = a + b\n(2) y = a + b\nend")
    assert r.is_available("2", A_PLUS_B)


def test_operand_redefinition_kills():
    g, r = solve("program p\n(1) x = a + b\n(2) a = 0\n(3) y = a + b\nend")
    assert not r.is_available("3", A_PLUS_B)


def test_same_block_kill_order_matters():
    g, r = solve("program p\n(1) x = a + b\n(1) a = 0\n(2) y = 1\nend")
    # computed then operand clobbered in the same block: not available out.
    assert A_PLUS_B not in r.AvailOut("1")


def test_must_property_branch():
    src = "program p\nif c then\n(1) x = a + b\nendif\n(2) y = a + b\nend"
    g, r = solve(src)
    assert not r.is_available("2", A_PLUS_B)  # only one path computes it


def test_both_branches_compute_it():
    src = "program p\nif c then\n(1) x = a + b\nelse\n(2) z = a + b\nendif\n(3) y = a + b\nend"
    g, r = solve(src)
    assert r.is_available("3", A_PLUS_B)


def test_loop_greatest_fixpoint():
    src = "program p\n(1) x = a + b\n(2) loop\n(3) y = a + b\n(4) endloop\nend"
    g, r = solve(src)
    # a+b available around the loop (nothing kills it).
    assert r.is_available("3", A_PLUS_B)


def test_parallel_sections_single_writer_survives_join():
    src = """program p
(1) x = a + b
(2) parallel sections
  (3) section A
    (3) u = 1
  (4) section B
    (4) v = 2
(5) end parallel sections
(5) y = a + b
end"""
    g, r = solve(src)
    assert r.is_available("5", A_PLUS_B)


def test_join_kills_when_two_sections_write_operand():
    src = """program p
(1) x = a + b
(2) parallel sections
  (3) section A
    (3) a = 1
    (3) u = a + b
  (4) section B
    (4) a = 2
    (4) v = a + b
(5) end parallel sections
(5) y = a + b
end"""
    g, r = solve(src)
    # Both sections computed a+b at their exits, but the merged memory may
    # mix copies of a: killed at the join.
    assert not r.is_available("5", A_PLUS_B)


def test_wait_kills_concurrently_written_operands():
    src = """program p
event e
(1) x = a + b
(2) parallel sections
  (3) section A
    (3) a = 9
    (3) post(e)
  (4) section B
    (4) u = a + b
    (4) wait(e)
    (5) y = a + b
(6) end parallel sections
end"""
    g, r = solve(src)
    # Before the wait, section B still computes on its own copy...
    assert r.is_available("4", A_PLUS_B)
    # ...but the wait may absorb A's new a: availability dies.
    assert not r.is_available("5", A_PLUS_B)


def test_redundant_computation_report():
    g = build_pfg(parse_program("program p\n(1) x = a + b\n(2) y = a + b\nend"))
    found = find_redundant_computations(g)
    assert len(found) == 1
    assert found[0].node.name == "2" and found[0].target == "y"
    assert "already available" in found[0].format()


def test_redundancy_requires_untouched_operands():
    g = build_pfg(parse_program("program p\n(1) x = a + b\n(2) a = 0\n(2) y = a + b\nend"))
    assert find_redundant_computations(g) == []


def test_converges(fig3_graph):
    r = solve_available_expressions(fig3_graph)
    assert r.stats.converged


#: A 1,200-term left-associative sum and 600 unary minus signs: too deep,
#: once parsed, for recursive equality and hashing at the default limit.
LONG_SUM = "x" + " + 1" * 1199
DEEP_UNARY = "-" * 600 + "x"


@pytest.mark.parametrize("rhs", [LONG_SUM, DEEP_UNARY], ids=["long-sum", "deep-unary"])
def test_deep_expressions_without_recursion(rhs):
    g, r = solve(f"program deep\n(1) x = 1\n(2) y = {rhs}\n(3) z = {rhs}\nend")
    expr = parse_expression(rhs)
    assert interesting_expressions(g) == [expr]
    assert r.is_available("3", expr) and not r.is_available("2", expr)
    (redundant,) = find_redundant_computations(g)
    assert (redundant.node.name, redundant.target, redundant.expr) == ("3", "z", expr)
