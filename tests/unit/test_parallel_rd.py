"""Parallel reaching-definitions unit tests (paper §5)."""

import pytest

from repro.lang import parse_program
from repro.pfg import build_pfg
from repro.reachdefs import solve_parallel, solve_sequential


def solve(src, **kw):
    return solve_parallel(build_pfg(parse_program(src)), **kw)


UNCONDITIONAL_KILL = """program p
(1) x = 1
(2) parallel sections
  (3) section A
    (3) x = 2
  (4) section B
    (4) y = 3
(5) end parallel sections
(5) z = x
end"""


def test_unconditional_kill_in_one_branch_kills_at_join():
    r = solve(UNCONDITIONAL_KILL)
    # The paper's core rule: x1 is killed because section A *always* runs.
    assert {d.name for d in r.reaching("5", "x")} == {"x3"}


def test_sequential_equations_differ_on_same_shape():
    # The same graph under the naive sequential equations keeps x1 — the
    # contrast that motivates the whole paper.
    g = build_pfg(parse_program(UNCONDITIONAL_KILL))
    r = solve_sequential(g)
    assert {d.name for d in r.reaching("5", "x")} == {"x1", "x3"}


def test_conditional_kill_does_not_kill():
    src = """program p
(1) x = 1
(2) parallel sections
  (3) section A
    (3) if c then
      (4) x = 2
    endif
  (5) section B
    (5) y = 3
(6) end parallel sections
end"""
    r = solve(src)
    assert {d.name for d in r.reaching("6", "x")} == {"x1", "x4"}


def test_concurrent_defs_both_reach_join():
    src = """program p
(1) b = 1
(2) parallel sections
  (3) section A
    (3) b = 2
  (4) section B
    (4) b = 3
(5) end parallel sections
end"""
    r = solve(src)
    assert {d.name for d in r.reaching("5", "b")} == {"b3", "b4"}


def test_parallel_kill_not_in_out():
    src = """program p
(1) b = 1
(2) parallel sections
  (3) section A
    (3) b = 2
    (3) u = b
  (4) section B
    (4) b = 3
(5) end parallel sections
end"""
    r = solve(src)
    # b4 is in ParallelKill(3): it never appears in Out(3).
    assert "b4" not in r.out_names("3")
    assert "b3" in r.out_names("3")


def test_section_does_not_see_sibling_defs():
    src = """program p
(1) x = 1
(2) parallel sections
  (3) section A
    (3) x = 2
  (4) section B
    (4) y = x
(5) end parallel sections
end"""
    r = solve(src)
    # Copy-in semantics: section B sees the fork-time x only.
    assert {d.name for d in r.reaching("4", "x")} == {"x1"}


def test_nested_construct_outer_kill_survives_inner_join(fig6_graph):
    r = solve_parallel(fig6_graph)
    # b1 is killed by section A (outer) and by B1 (inner); the nested
    # ForkKill plumbing must still record a1/b1 at the outer join.
    assert r.set_names("ACCKillout", "10") == {"a1", "b1"}


def test_forkkill_masked_by_out():
    # A def that reaches the join is not reported as killed even if the
    # fork's ForkKill contains it (ForkKill − Out at the join).
    src = """program p
(1) c = 1
(2) parallel sections
  (3) section A
    (3) if p then
      (4) c = 2
    endif
  (5) section B
    (5) y = 3
(6) end parallel sections
end"""
    r = solve(src)
    assert "c1" in r.in_names("6")
    assert "c1" not in r.set_names("ACCKillout", "6")


def test_single_section_construct():
    src = """program p
(1) x = 1
parallel sections
  section A
    (2) x = 2
(3) end parallel sections
end"""
    r = solve(src)
    assert {d.name for d in r.reaching("3", "x")} == {"x2"}


def test_loop_around_construct_circulates_defs():
    src = """program p
(1) x = 1
(2) loop
  (3) parallel sections
    (4) section A
      (4) x = 2
    (5) section B
      (5) y = x
  (6) end parallel sections
(7) endloop
end"""
    r = solve(src)
    # Second iteration: section B sees x2 from the first iteration.
    assert {d.name for d in r.reaching("5", "x")} == {"x1", "x4"}


def test_equivalent_to_sequential_on_sequential_graph(fig1a_graph):
    par = solve_parallel(fig1a_graph)
    seq = solve_sequential(fig1a_graph)
    for n in fig1a_graph.nodes:
        assert par.In(n) == seq.In(n)
        assert par.Out(n) == seq.Out(n)


@pytest.mark.parametrize("backend", ["set", "bitset"])
@pytest.mark.parametrize("solver,order", [("round-robin", "rpo"), ("worklist", "document")])
def test_fixpoint_stable_across_configs(fig6_graph, backend, solver, order):
    base = solve_parallel(fig6_graph)
    other = solve_parallel(fig6_graph, backend=backend, solver=solver, order=order)
    for n in fig6_graph.nodes:
        assert base.In(n) == other.In(n)
        assert base.ACCKillout(n) == other.ACCKillout(n)


def test_result_metadata(fig6_graph):
    r = solve_parallel(fig6_graph)
    assert r.system == "parallel"
    assert r.synch_pass is None
    assert r.fork_kill is not None
