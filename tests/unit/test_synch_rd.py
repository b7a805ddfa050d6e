"""Synchronized reaching-definitions unit tests (paper §6)."""

import pytest

from repro.lang import parse_program
from repro.pfg import build_pfg
from repro.reachdefs import solve_parallel, solve_synch

PIPELINE = """program p
event e
(1) x = 1
(2) parallel sections
  (3) section A
    (3) x = 2
    (3) post(e)
  (4) section B
    (4) wait(e)
    (4) x = 3
(5) end parallel sections
(5) y = x
end"""


def test_post_wait_orders_definitions():
    r = solve_synch(build_pfg(parse_program(PIPELINE)))
    # x3 (the post block's def) is ordered before x4 (the wait block's
    # def) by the synchronization: only x4 reaches.
    assert {d.name for d in r.reaching("5", "x")} == {"x4"}


def test_without_preserved_both_reach():
    r = solve_synch(build_pfg(parse_program(PIPELINE)), preserved="none")
    assert {d.name for d in r.reaching("5", "x")} == {"x3", "x4"}


def test_sync_edge_carries_values_into_wait():
    src = """program p
event e
(1) x = 1
(2) parallel sections
  (3) section A
    (3) w = 2
    (3) post(e)
  (4) section B
    (4) wait(e)
    (4) y = w
(5) end parallel sections
end"""
    r = solve_synch(build_pfg(parse_program(src)))
    # w3 flows across the sync edge into the wait block.
    assert {d.name for d in r.reaching("4", "w")} == {"w3"}


def test_conditional_posts_both_preserved():
    src = """program p
event e
(1) x = 1
(2) parallel sections
  (3) section A
    (3) if c then
      (4) x = 4
      (4) post(e)
    else
      (5) x = 5
      (5) post(e)
    endif
  (6) section B
    (6) wait(e)
    (6) x = 6
(7) end parallel sections
end"""
    r = solve_synch(build_pfg(parse_program(src)))
    wait = r.graph.node("6")
    assert {n.name for n in r.Preserved(wait)} >= {"4", "5"}
    assert {d.name for d in r.reaching("7", "x")} == {"x6"}


def test_equivalent_to_parallel_without_sync(fig6_graph):
    sync = solve_synch(fig6_graph)
    par = solve_parallel(fig6_graph)
    for n in fig6_graph.nodes:
        assert sync.In(n) == par.In(n)
        assert sync.Out(n) == par.Out(n)
        assert sync.ACCKillout(n) == par.ACCKillout(n)
        assert sync.SynchPass(n) == frozenset()


def test_oracle_preserved_mode():
    g = build_pfg(parse_program(PIPELINE))
    wait = g.node("4")
    post = g.node("3")
    r = solve_synch(g, preserved="oracle", preserved_oracle={wait: frozenset({post})})
    assert {d.name for d in r.reaching("5", "x")} == {"x4"}


def test_oracle_mode_requires_oracle(fig3_graph):
    with pytest.raises(ValueError, match="oracle"):
        solve_synch(fig3_graph, preserved="oracle")


def test_unknown_preserved_mode_rejected(fig3_graph):
    with pytest.raises(ValueError, match="unknown preserved mode"):
        solve_synch(fig3_graph, preserved="psychic")


def test_preserved_none_is_sound_superset(fig3_graph):
    precise = solve_synch(fig3_graph, preserved="approx")
    blunt = solve_synch(fig3_graph, preserved="none")
    for n in fig3_graph.nodes:
        assert precise.In(n) <= blunt.In(n), n.name
        assert precise.Out(n) <= blunt.Out(n), n.name


@pytest.mark.parametrize("backend", ["set", "bitset"])
@pytest.mark.parametrize("solver,order", [("round-robin", "rpo"), ("worklist", "document")])
def test_fixpoint_stable_across_configs(fig3_graph, backend, solver, order):
    base = solve_synch(fig3_graph)
    other = solve_synch(fig3_graph, backend=backend, solver=solver, order=order)
    for n in fig3_graph.nodes:
        assert base.In(n) == other.In(n)
        assert base.SynchPass(n) == other.SynchPass(n)


def test_result_metadata(fig3_graph):
    r = solve_synch(fig3_graph)
    assert r.system == "synch"
    assert r.preserved is not None
    assert r.synch_pass is not None


def test_multiple_waits_same_event():
    src = """program p
event e
(1) x = 1
(2) parallel sections
  (3) section A
    (3) x = 2
    (3) post(e)
  (4) section B
    (4) wait(e)
    (4) x = 3
  (5) section C
    (5) wait(e)
    (5) y = x
(6) end parallel sections
end"""
    r = solve_synch(build_pfg(parse_program(src)))
    # Both waits are released by the same post; x3 reaches C's read.
    assert "x3" in {d.name for d in r.reaching("5", "x")}
    # x3 ordered before B's x4: x4 reaches the join.
    assert "x4" in {d.name for d in r.reaching("6", "x")}
