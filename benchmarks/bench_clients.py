"""Experiment ``perf-clients`` — cost of each optimization client and of
the full driver pipeline on a mid-size mixed workload, and of the
chain-propagating clients on a long redefinition chain
(``diamond_chain(400)``: up to 400 definitions of one variable reach a
use, the shape that made pair-by-pair propagation quadratic).

The mixed workload is ``random_mix(seed=23, n_stmts=250)``: 237
statements lowering to 142 blocks with 126 definitions and 91 uses, with
sections, loops and post/wait.  (Most ``random_mix`` draws stop well
short of their target; seed 5 gave 2 blocks and 1 use, which timed only
per-call overhead.)  ``test_mixed_workload_size`` prints the counts."""

import pytest

from repro import analyze, build_pfg, optimize
from repro.analysis import (
    compute_ud_chains,
    find_anomalies,
    find_common_subexpressions,
    find_copy_propagations,
    find_dead_code,
    find_induction_variables,
    lint_synchronization,
    propagate_constants,
    solve_liveness,
)
from repro.analysis.availexpr import solve_available_expressions
from repro.synthetic import diamond_chain, random_mix

PROGRAM = random_mix(seed=23, n_stmts=250)
CHAIN = diamond_chain(400)


@pytest.fixture(scope="module")
def prepared():
    graph = build_pfg(PROGRAM)
    result = analyze(PROGRAM)
    return graph, result


@pytest.fixture(scope="module")
def chain_prepared():
    return build_pfg(CHAIN), analyze(CHAIN)


CLIENTS = {
    "ud-chains": lambda g, r: compute_ud_chains(r),
    "anomalies": lambda g, r: find_anomalies(r),
    "constants": lambda g, r: propagate_constants(r),
    "induction": lambda g, r: find_induction_variables(r),
    "dead-code": lambda g, r: find_dead_code(r),
    "copy-prop": lambda g, r: find_copy_propagations(r),
    "cse": lambda g, r: find_common_subexpressions(r),
    "sync-lint": lambda g, r: lint_synchronization(g),
    "liveness": lambda g, r: solve_liveness(g),
    "avail-expr": lambda g, r: solve_available_expressions(g),
}


def test_mixed_workload_size(prepared):
    graph, result = prepared
    uses = len(compute_ud_chains(result).ud)
    print(f"mixed workload: {len(graph.nodes)} blocks, {len(graph.defs)} definitions, {uses} uses")
    assert (len(graph.nodes), len(graph.defs), uses) == (142, 126, 91)
    assert graph.posts and graph.forks and graph.has_retreating_edge


@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_client_cost(benchmark, prepared, name):
    graph, result = prepared
    out = benchmark(CLIENTS[name], graph, result)
    assert out is not None


#: The clients that propagate over ud-chains.
CHAIN_CLIENTS = ("ud-chains", "constants", "dead-code", "copy-prop", "cse")


@pytest.mark.parametrize("name", CHAIN_CLIENTS)
def test_client_cost_on_a_redefinition_chain(benchmark, chain_prepared, name):
    graph, result = chain_prepared
    out = benchmark(CLIENTS[name], graph, result)
    assert out is not None


def test_full_driver(benchmark):
    report = benchmark(optimize, PROGRAM)
    assert report.result.stats.converged
    assert report.opportunity_count()
