"""Experiment ``perf-backends`` — set representation ablation.

The paper notes "most commercial compilers use the bit vector intermediate
representation".  We compare the two interchangeable backends on one
mid-size workload: plain frozensets and Python-int bit vectors
(branch-free C-level word ops).  A packed NumPy backend was measured
slower than both end to end and removed (``docs/performance.md``, "Set
backends, end to end")."""

import pytest

from repro import build_pfg
from repro.reachdefs import solve_synch
from repro.synthetic import random_mix

PROGRAM = random_mix(seed=21, n_stmts=300)


@pytest.fixture(scope="module")
def graph():
    return build_pfg(PROGRAM)


@pytest.mark.parametrize("backend", ["set", "bitset"])
def test_backend_timing(benchmark, graph, backend):
    result = benchmark(solve_synch, graph, backend=backend)
    assert result.stats.converged


def test_backends_same_answer(graph):
    results = {b: solve_synch(graph, backend=b) for b in ("set", "bitset")}
    base = results["set"]
    for backend, other in results.items():
        for node in graph.nodes:
            assert base.In(node) == other.In(node), (backend, node.name)
