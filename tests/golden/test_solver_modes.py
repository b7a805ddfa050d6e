"""The stabilized (default) solver reproduces the paper's fixpoints
bit-for-bit on every paper example — the per-iteration tables are a
round-robin artifact, the *answers* are solver-independent there."""

import pytest

from repro.paper import programs
from repro.reachdefs import solve_parallel, solve_sequential, solve_synch

CASES = [
    ("fig1a", solve_sequential),
    ("fig1b", solve_parallel),
    ("fig5a", solve_sequential),
    ("fig5b", solve_parallel),
    ("fig6", solve_parallel),
    ("fig3", solve_synch),
    ("fig3c", solve_synch),
    ("fig9", solve_synch),
]


@pytest.mark.parametrize("key,solve", CASES, ids=[c[0] for c in CASES])
def test_stabilized_equals_paper_mode(key, solve):
    stabilized = solve(programs.graph(key), solver="stabilized")
    paper = solve(programs.graph(key), solver="round-robin")
    for node in stabilized.graph.nodes:
        assert stabilized.in_names(node) == paper.in_names(node.name), node.name
        assert stabilized.out_names(node) == paper.out_names(node.name), node.name
        if stabilized.acc_killout is not None:
            assert stabilized.set_names("ACCKillout", node) == paper.set_names(
                "ACCKillout", node.name
            ), node.name


@pytest.mark.parametrize("key,solve", CASES, ids=[c[0] for c in CASES])
def test_worklist_equals_paper_mode(key, solve):
    wl = solve(programs.graph(key), solver="worklist")
    paper = solve(programs.graph(key), solver="round-robin")
    for node in wl.graph.nodes:
        assert wl.in_names(node) == paper.in_names(node.name), node.name


def test_snapshot_passes_requires_round_robin(fig6_graph):
    with pytest.raises(ValueError, match="round-robin"):
        solve_parallel(fig6_graph, solver="stabilized", snapshot_passes=True)
