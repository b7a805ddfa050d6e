"""The one name → engine dispatch (:func:`repro.dataflow.solver.run_solver`)
behind ``solve_sequential``, ``solve_parallel`` and ``solve_synch``."""

import pytest

from repro.dataflow.solver import SOLVER_NAMES
from repro.paper import programs
from repro.reachdefs import solve_parallel, solve_sequential, solve_synch, solve_system

FAMILIES = [
    ("sequential", "fig1a", solve_sequential),
    ("parallel", "fig6", solve_parallel),
    ("synch", "fig3", solve_synch),
]


@pytest.mark.parametrize("solver", SOLVER_NAMES)
@pytest.mark.parametrize("family,key,solve", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_snapshot_passes_only_on_round_robin(family, key, solve, solver):
    graph = programs.graph(key)
    if solver == "round-robin":
        result = solve(graph, solver=solver, snapshot_passes=True)
        assert len(result.stats.snapshots) == result.stats.passes
    else:
        with pytest.raises(ValueError, match="round-robin"):
            solve(graph, solver=solver, snapshot_passes=True)


@pytest.mark.parametrize("solve", [f[2] for f in FAMILIES], ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("solver", ["scc-dense", "magic"])
def test_unknown_solver_rejected(solve, solver):
    with pytest.raises(ValueError, match="unknown solver"):
        solve(programs.graph("fig6"), solver=solver)


@pytest.mark.parametrize("key", ["fig1a", "fig5a"])
def test_stabilized_on_sequential_system_runs_round_robin(key):
    # No kill layer: the §2 system is monotone, so the dispatch runs the
    # chaotic sweep and reports the plain order string.
    stabilized = solve_sequential(programs.graph(key), solver="stabilized")
    paper = solve_sequential(programs.graph(key), solver="round-robin")
    assert stabilized.stats.as_dict() == paper.stats.as_dict()
    assert stabilized.stats.order == "document"
    assert solve_system(programs.graph(key)).stats.as_dict() == paper.stats.as_dict()


@pytest.mark.parametrize(
    "solver,order",
    [
        ("stabilized", "stabilized/rpo"),
        ("round-robin", "rpo"),
        ("worklist", "worklist/rpo"),
        ("scc", "scc/rpo"),
    ],
)
def test_order_strings(solver, order):
    result = solve_parallel(programs.graph("fig6"), solver=solver, order="rpo")
    assert result.stats.order == order
