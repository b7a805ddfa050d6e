"""repro — reaching definitions for explicitly parallel programs.

A reproduction of Grunwald & Srinivasan, *Data Flow Equations for
Explicitly Parallel Programs* (CU-CS-605-92, PPoPP 1993): a mini-PCF
front end, the Parallel Flow Graph, the paper's sequential / parallel /
synchronized reaching-definitions equation systems, the Preserved-set
approximation, optimization clients, and a concurrent interpreter used as
a dynamic soundness oracle.

Quickstart::

    from repro import analyze, parse_program

    prog = parse_program(source_text)
    result = analyze(prog)             # picks the right equation system
    result.reaching("6", "k")          # defs of k reaching block (6)
"""

from __future__ import annotations

from . import obs, robust
from .cfg import build_cfg, is_sequential
from .cssa import build_cssa, render_cssa
from .driver import OptimizationReport, analyze, optimize
from .lang import ast, parse_program, pretty
from .pfg import ParallelFlowGraph, build_pfg, to_dot, validate_pfg
from .reachdefs import (
    ReachingDefsResult,
    compute_genkill,
    compute_preserved,
    solve_parallel,
    solve_sequential,
    solve_synch,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "analyze",
    "obs",
    "robust",
    "optimize",
    "OptimizationReport",
    "ast",
    "build_cfg",
    "build_cssa",
    "render_cssa",
    "build_pfg",
    "compute_genkill",
    "compute_preserved",
    "is_sequential",
    "parse_program",
    "pretty",
    "ParallelFlowGraph",
    "ReachingDefsResult",
    "solve_parallel",
    "solve_sequential",
    "solve_synch",
    "to_dot",
    "validate_pfg",
]
