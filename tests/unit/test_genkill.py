"""Gen/Kill/ParallelKill/OtherDefs tests."""

import pytest

from repro.dataflow.bitset import BACKEND_NAMES
from repro.lang import parse_program
from repro.paper import SOURCES
from repro.pfg import build_pfg
from repro.reachdefs import (
    ConservativeRDSystem,
    ParallelRDSystem,
    SequentialRDSystem,
    SynchRDSystem,
)
from repro.reachdefs.genkill import compute_genkill, sequential_kill
from repro.reachdefs.preserved import resolve_preserved
from repro.synthetic import diamond_chain, random_mix


def names(defs):
    return {d.name for d in defs}


def test_gen_is_downward_exposed():
    g = build_pfg(parse_program("program p\n(1) x = 1\n(1) x = 2\n(1) y = 3\nend"))
    info = compute_genkill(g)
    node = g.node("1")
    gen = names(info.gen[node])
    assert gen == {"x1", "y1"}  # only the last x definition escapes; it
    # keeps the clean name while the shadowed one becomes x1'1
    all_names = {d.name for d in g.defs}
    assert all_names == {"x1", "x1'1", "y1"}


def test_kill_excludes_own_defs():
    g = build_pfg(parse_program("program p\n(1) x = 1\n(2) x = 2\nend"))
    info = compute_genkill(g)
    assert names(info.kill[g.node("1")]) == {"x2"}
    assert names(info.kill[g.node("2")]) == {"x1"}


def test_other_defs_is_kill_union_parkill(fig3_graph):
    info = compute_genkill(fig3_graph)
    for node in fig3_graph.nodes:
        assert info.other_defs[node] == info.kill[node] | info.parallel_kill[node]
        assert not (info.kill[node] & info.parallel_kill[node])


def test_fig3_parallel_kills(fig3_graph):
    info = compute_genkill(fig3_graph)
    g = fig3_graph
    assert names(info.parallel_kill[g.node("8")]) == {"x4", "x5"}
    assert names(info.parallel_kill[g.node("6")]) == {"z9"}
    assert names(info.parallel_kill[g.node("9")]) == {"z6"}
    assert names(info.kill[g.node("8")]) == {"xEntry"}


def test_fig6_parallel_kills(fig6_graph):
    info = compute_genkill(fig6_graph)
    g = fig6_graph
    assert names(info.parallel_kill[g.node("3")]) == {"b5"}
    assert names(info.parallel_kill[g.node("5")]) == {"b3"}
    assert names(info.kill[g.node("3")]) == {"a1", "b1"}


def test_sequential_program_has_empty_parkill(fig1a_graph):
    info = compute_genkill(fig1a_graph)
    for node in fig1a_graph.nodes:
        assert info.parallel_kill[node] == frozenset()


def test_sequential_kill_equals_other_defs(fig3_graph):
    info = compute_genkill(fig3_graph)
    for node in fig3_graph.nodes:
        assert sequential_kill(info, node) == info.other_defs[node]


def test_def_node_mapping(fig3_graph):
    info = compute_genkill(fig3_graph)
    for node in fig3_graph.nodes:
        for d in node.defs:
            assert info.def_node[d] is node


def test_node_without_defs_has_empty_sets(fig3_graph):
    info = compute_genkill(fig3_graph)
    fork = fig3_graph.node("2")
    assert info.gen[fork] == frozenset()
    assert info.kill[fork] == frozenset()
    assert info.other_defs[fork] == frozenset()


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_compiled_keep_rows_are_universe_minus_other_defs(backend):
    # The plans take the local sets as masks (on the set backend, as the
    # rows the info decodes); each system must compile exactly the sets
    # compute_genkill lists: keep = U − OtherDefs (U for the
    # accumulate-only floor), Gen, and §5/§6's Kill.
    programs = [parse_program(src) for src in SOURCES.values()]
    programs += [diamond_chain(6), parse_program("program p\n(1) x = 1\n(1) x = 2\n(1) y = 3\n(2) y = x\nend")]
    programs += [random_mix(seed, 40) for seed in range(4)]
    for program in programs:
        graph = build_pfg(program)
        info = compute_genkill(graph)
        universe = frozenset(graph.defs)
        seq = SequentialRDSystem(graph, backend=backend)
        par = ParallelRDSystem(graph, backend=backend)
        syn = SynchRDSystem(graph, resolve_preserved(graph), backend=backend)
        con = ConservativeRDSystem(graph, backend=backend)
        decode = seq.ops.to_frozenset
        for node in graph.nodes:
            where = (program.name, node.name)
            keep = universe - info.other_defs[node]
            assert decode(seq._plan[node][1]) == keep, where
            assert decode(con._plan[node][1]) == universe, where
            for system in (par, syn):
                assert decode(system._flow_plan[node][3]) == keep, where
                assert decode(system._kill_plan[node][3]) == info.kill[node], where
            for gen in (seq._plan[node][2], con._plan[node][2], par._flow_plan[node][4]):
                assert decode(gen) == info.gen[node], where
