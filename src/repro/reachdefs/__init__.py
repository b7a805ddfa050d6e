"""Reaching definitions for explicitly parallel programs — the paper's
three equation systems plus the Preserved-set approximation."""

from .conservative import ConservativeRDSystem, solve_conservative
from .genkill import DefSet, GenKillInfo, compute_genkill, sequential_kill
from .parallel import ParallelRDSystem, solve_parallel
from .preserved import (
    PreservedResult,
    compute_preserved,
    empty_preserved,
    resolve_preserved,
)
from .result import ReachingDefsResult
from .sequential import SequentialRDSystem, solve_sequential
from .synch import SynchRDSystem, solve_synch


def equation_family(graph) -> str:
    """The paper's equation system for ``graph``: ``"synch"`` (§6) when it
    posts or waits, ``"parallel"`` (§5) when it forks or has a parallel
    do, else ``"sequential"`` (§2)."""
    if graph.posts_of_event or graph.waits_of_event:
        return "synch"
    if graph.forks or graph.pardos:
        return "parallel"
    return "sequential"


def solve_system(
    graph,
    *,
    backend: str = "bitset",
    order: str = "document",
    solver: str = "stabilized",
    preserved: str = "approx",
    budget=None,
    record_provenance: bool = False,
    dense=None,
) -> ReachingDefsResult:
    """Solve ``graph`` with its :func:`equation_family` system.

    ``preserved`` only matters to §6; ``solver`` and ``dense`` as in
    :func:`~repro.dataflow.solver.run_solver`."""
    family = equation_family(graph)
    kwargs = dict(
        backend=backend, order=order, budget=budget,
        record_provenance=record_provenance, dense=dense,
    )
    if family == "synch":
        return solve_synch(graph, solver=solver, preserved=preserved, **kwargs)
    if family == "parallel":
        return solve_parallel(graph, solver=solver, **kwargs)
    return solve_sequential(graph, solver=solver, **kwargs)


__all__ = [
    "equation_family",
    "solve_system",
    "ConservativeRDSystem",
    "solve_conservative",
    "DefSet",
    "GenKillInfo",
    "compute_genkill",
    "sequential_kill",
    "ParallelRDSystem",
    "solve_parallel",
    "PreservedResult",
    "compute_preserved",
    "empty_preserved",
    "resolve_preserved",
    "ReachingDefsResult",
    "SequentialRDSystem",
    "solve_sequential",
    "SynchRDSystem",
    "solve_synch",
]
