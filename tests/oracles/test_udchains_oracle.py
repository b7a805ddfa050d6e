"""Masked ud-chains against the inflow-grouping reference.

``ReachingDefsResult.ud_chains`` decodes ``In(n) & defs(var)`` per node
and used variable; ``reference_udchains`` groups the decoded ``In`` row
by variable.  The chains (and their order), ``reaching``,
``reaching_use`` and ``in_out`` must agree on every system and backend,
also when the rows are plain dicts (a result rebuilt with
``dataclasses.replace``, as fault injection does), and ``UDChains.du``
must be ``result.du_chains(ud)``.  Every node's read list must list the
reads ``Expr.variables()`` finds.
"""

from dataclasses import replace

import pytest

from repro.analysis.udchains import compute_ud_chains
from repro.pfg import build_pfg

from .reference_udchains import reference_ud_chains, reference_uses
from .test_materialize_oracle import PROGRAMS, SYSTEMS


def plain(result):
    fields = ("in_sets", "out_sets", "acc_killin", "acc_killout", "fork_kill", "synch_pass")
    return replace(
        result,
        **{f: dict(getattr(result, f)) for f in fields if getattr(result, f) is not None},
    )


def check_queries(result, reference_result):
    expected = reference_ud_chains(reference_result)
    ud = result.ud_chains()
    assert ud == expected
    assert list(ud) == list(expected)
    graph = result.graph
    for use, defs in ud.items():
        assert result.reaching_use(use) == defs
    for node in graph.nodes:
        row = reference_result.in_sets[node]
        for var in graph.defs.variables():
            assert result.reaching(node, var) == frozenset(d for d in row if d.var == var)
        assert result.in_out(node) == row | reference_result.out_sets[node]
    chains = compute_ud_chains(result)
    assert chains.ud == expected
    assert chains.du == result.du_chains(expected)
    assert list(chains.du) == list(graph.defs)


@pytest.mark.parametrize("backend", ["bitset", "set"])
@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_masked_chains_equal_the_reference(name, system_name, backend):
    graph = build_pfg(PROGRAMS[name]())
    system, stats, _ = SYSTEMS[system_name](graph, backend)
    eager = plain(system.to_result(stats))
    check_queries(system.to_result(stats), eager)
    check_queries(eager, eager)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_read_lists_equal_the_expression_walk(name):
    graph = build_pfg(PROGRAMS[name]())
    for node in graph.nodes:
        assert node.uses() == reference_uses(node)
        assert node.reads is node.reads
        assert len(node.reads) == len(node.stmts) + 1
