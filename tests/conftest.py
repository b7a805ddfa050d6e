"""Shared fixtures: paper programs/graphs/results, cached per session."""

from __future__ import annotations

import pytest

from repro.paper import programs
from repro.reachdefs import solve_parallel, solve_sequential, solve_synch
from repro.serve import worker as serve_worker


@pytest.fixture(autouse=True)
def _fresh_record_cache():
    """Keep tests hermetic: no test sees the serve records another
    test's in-process requests left behind."""
    serve_worker._RECORDS.clear()
    yield
    serve_worker._RECORDS.clear()


@pytest.fixture(scope="session")
def fig1a_graph():
    return programs.graph("fig1a")


@pytest.fixture(scope="session")
def fig1b_graph():
    return programs.graph("fig1b")


@pytest.fixture(scope="session")
def fig3_graph():
    return programs.graph("fig3")


@pytest.fixture(scope="session")
def fig6_graph():
    return programs.graph("fig6")


@pytest.fixture(scope="session")
def fig9_graph():
    return programs.graph("fig9")


@pytest.fixture(scope="session")
def table1_result(fig1a_graph):
    return solve_sequential(fig1a_graph, snapshot_passes=True)


@pytest.fixture(scope="session")
def fig8_result(fig6_graph):
    # paper mode: the golden per-iteration tables are the chaotic
    # document-order sweeps the paper shows (final sets are identical to
    # the stabilized default — asserted in tests/golden/test_solver_modes.py)
    return solve_parallel(fig6_graph, solver="round-robin", snapshot_passes=True)


@pytest.fixture(scope="session")
def fig3_result(fig3_graph):
    return solve_synch(fig3_graph, solver="round-robin", snapshot_passes=True)


@pytest.fixture(scope="session")
def fig9_result(fig9_graph):
    return solve_synch(fig9_graph)
