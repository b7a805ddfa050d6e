"""PFG builder tests: extended-basic-block formation, edge kinds, labels."""

import pytest

from repro.lang import parse_program
from repro.lang.errors import SemanticError
from repro.pfg import EdgeKind, NodeKind, build_pfg


def build(src):
    return build_pfg(parse_program(src))


def edge_set(g, kinds=tuple(EdgeKind)):
    return {(s.name, d.name) for s, d, k in g.edges() if k in kinds}


def test_straightline_single_block():
    g = build("program p\nx = 1\ny = x\nend")
    # Entry absorbs unlabelled leading statements.
    assert [n.name for n in g.nodes] == ["Entry", "Exit"]
    assert len(g.entry.stmts) == 2


def test_labelled_statement_starts_new_block():
    g = build("program p\n(1) x = 1\n(2) y = 2\nend")
    assert [n.name for n in g.nodes] == ["Entry", "1", "2", "Exit"]


def test_same_label_continues_block():
    g = build("program p\n(1) x = 1\n(1) y = 2\nend")
    assert len(g.node("1").stmts) == 2


def test_if_builds_diamond():
    g = build("program p\n(1) x=1\n(2) if x < 1 then\n(3) y=1\nelse\n(4) y=2\n(5) endif\nend")
    assert g.node("2").cond is not None
    assert edge_set(g) == {
        ("Entry", "1"), ("1", "2"), ("2", "3"), ("2", "4"),
        ("3", "5"), ("4", "5"), ("5", "Exit"),
    }


def test_if_without_else_branches_to_merge():
    g = build("program p\n(2) if c then\n(3) y=1\n(5) endif\nend")
    assert ("2", "5") in edge_set(g)
    assert ("3", "5") in edge_set(g)


def test_statements_after_merge_join_merge_block():
    g = build("program p\n(2) if c then\n(3) y=1\n(5) endif\n(5) z=2\nend")
    assert len(g.node("5").stmts) == 1


def test_loop_structure():
    g = build("program p\n(2) loop\n(3) x=1\n(7) endloop\nend")
    header = g.node("2")
    assert header.implicit_branch
    edges = edge_set(g)
    assert ("2", "3") in edges and ("3", "7") in edges
    assert ("7", "2") in edges  # back edge
    assert ("2", "Exit") in edges  # loop exit from header
    assert g.back_edges() == {(g.node("7"), g.node("2"))}


def test_while_header_holds_condition():
    g = build("program p\n(2) while x < 3 do\n(3) x = x + 1\n(4) endwhile\nend")
    assert g.node("2").cond is not None
    assert not g.node("2").implicit_branch
    assert (g.node("4"), g.node("2")) in g.back_edges()


def test_fork_join_edges_are_parallel():
    src = """program p
(1) x = 0
(2) parallel sections
  (3) section A
    (3) x = 1
  (4) section B
    (4) y = 2
(5) end parallel sections
end"""
    g = build(src)
    fork, join = g.node("2"), g.node("5")
    assert fork.kind is NodeKind.FORK and join.kind is NodeKind.JOIN
    assert fork.join is join and join.fork is fork
    par = edge_set(g, (EdgeKind.PAR,))
    assert par == {("2", "3"), ("2", "4"), ("3", "5"), ("4", "5")}
    assert ("1", "2") in edge_set(g, (EdgeKind.SEQ,))


def test_statements_after_join_go_into_join_block():
    src = "program p\nparallel sections\nsection A\nx=1\n(9) end parallel sections\n(9) z = 2\nend"
    g = build(src)
    join = g.node("9")
    assert join.kind is NodeKind.JOIN
    assert len(join.stmts) == 1


def test_empty_section_gets_own_block():
    src = "program p\nparallel sections\nsection A\nskip\nsection B\ny=1\nend parallel sections\nend"
    g = build(src)
    fork = g.forks[0]
    join = g.joins[0]
    assert len(g.succs(fork, (EdgeKind.PAR,))) == 2
    assert len(g.par_preds(join)) == 2


def test_post_seals_block():
    g = build("program p\nevent e\n(1) x=1\n(1) post(e)\n(2) y=2\nend")
    n1 = g.node("1")
    assert n1.post_event == "e"
    assert g.node("2").stmts  # y=2 went to a new block
    assert g.posts_of_event["e"] == [n1]


def test_clears_indexed_once_per_block():
    g = build("program p\nevent e\nevent f\n(1) clear(e)\n(1) clear(f)\n(1) clear(e)\n(1) post(e)\n(2) clear(e)\nend")
    assert g.clears_of_event == {"e": [g.node("1"), g.node("2")], "f": [g.node("1")]}


def test_wait_starts_block():
    g = build("program p\nevent e\n(1) x=1\nwait(e)\ny=2\nend")
    (wait,) = g.waits
    assert wait.wait_event == "e"
    assert wait.name != "1"
    assert [s.target for s in wait.stmts] == ["y"]


def test_wait_reuses_fresh_empty_block():
    src = """program p
event e
parallel sections
  (8) section B1
    (8) wait(e)
    (8) x = 1
  section B2
    y = 2
end parallel sections
end"""
    g = build(src)
    node8 = g.node("8")
    assert node8.wait_event == "e"
    assert len(node8.stmts) == 1


def test_sync_edges_connect_all_posts_to_all_waits():
    src = """program p
event e
parallel sections
  section A
    (1) post(e)
    (2) post(e)
  section B
    (3) wait(e)
  section C
    (4) wait(e)
end parallel sections
end"""
    g = build(src)
    sync = edge_set(g, (EdgeKind.SYNC,))
    assert sync == {("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")}


def test_clear_is_plain_statement():
    g = build("program p\nevent e\n(1) x=1\n(1) clear(e)\n(1) y=2\nend")
    assert len(g.node("1").stmts) == 3


def test_nested_construct_fork_is_section_entry():
    src = """program p
(2) parallel sections
  (3) section A
    (3) x = 1
  (7) section B
    (7) parallel sections
      (8) section B1
        (8) y = 1
      (9) section B2
        (9) z = 2
    (10) end parallel sections
(11) end parallel sections
end"""
    g = build(src)
    inner_fork = g.node("7")
    assert inner_fork.kind is NodeKind.FORK
    # inner fork reached from outer fork by a PAR edge
    assert ("2", "7") in edge_set(g, (EdgeKind.PAR,))
    # inner join connects to outer join by a PAR edge
    assert ("10", "11") in edge_set(g, (EdgeKind.PAR,))


def test_definition_sites_use_block_names():
    g = build("program p\n(4) x = 7\nend")
    assert g.defs.names() == ("x4",)


def test_duplicate_labels_get_suffixes():
    g = build("program p\n(1) x=1\n(2) y=2\n(1) z=3\nend")
    names = [n.name for n in g.nodes]
    assert "1" in names and "1_2" in names


def test_section_paths_assigned():
    src = """program p
parallel sections
  section A
    x = 1
  section B
    y = 2
end parallel sections
end"""
    g = build(src)
    fork = g.forks[0]
    a_node = g.succs(fork, (EdgeKind.PAR,))[0]
    b_node = g.succs(fork, (EdgeKind.PAR,))[1]
    assert fork.section_path == ()
    assert a_node.section_path == ((0, 0),)
    assert b_node.section_path == ((0, 1),)
    assert g.joins[0].section_path == ()


def test_fork_has_no_statements():
    g = build("program p\nx = 0\nparallel sections\nsection A\ny=1\nend parallel sections\nend")
    assert g.forks[0].stmts == []


def test_undeclared_event_rejected_at_build():
    with pytest.raises(SemanticError):
        build("program p\npost(e)\nend")
