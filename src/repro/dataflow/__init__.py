"""Data-flow machinery: set backends, equation framework, fixpoint solvers."""

from .bitset import (
    BACKEND_NAMES,
    BACKENDS,
    FrozensetBackend,
    IntBitsetBackend,
    SetBackend,
    make_backend,
)
from .budget import BudgetExceeded, NonConvergenceError, ResourceBudget, check_budget
from .cache import cached_build_pfg, program_digest
from .framework import EquationSystem, FixpointDiverged, SolveStats, VariableMap
from .sched import Region, Schedule, build_schedule, get_schedule, solve_scc
from .solver import (
    DEFAULT_MAX_PASSES,
    SOLVER_NAMES,
    make_order,
    run_solver,
    solve_round_robin,
    solve_stabilized,
    solve_worklist,
)

__all__ = [
    "BudgetExceeded",
    "NonConvergenceError",
    "ResourceBudget",
    "check_budget",
    "solve_stabilized",
    "cached_build_pfg",
    "program_digest",
    "Region",
    "Schedule",
    "build_schedule",
    "get_schedule",
    "solve_scc",
    "BACKEND_NAMES",
    "BACKENDS",
    "FrozensetBackend",
    "IntBitsetBackend",
    "SetBackend",
    "make_backend",
    "EquationSystem",
    "FixpointDiverged",
    "SolveStats",
    "VariableMap",
    "DEFAULT_MAX_PASSES",
    "SOLVER_NAMES",
    "make_order",
    "run_solver",
    "solve_round_robin",
    "solve_worklist",
]
