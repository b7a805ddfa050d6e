"""Execution traces and the dynamic↔static bridge.

``stmt_locations`` maps every executable statement (and branch condition)
of a program to its Parallel Flow Graph coordinates ``(block name,
ordinal)``, so runtime variable reads can be expressed as the same
:class:`~repro.ir.defs.Use` objects the static analysis reasons about.

``check_soundness`` then states the reproduction's core dynamic property:
**every definition observed to reach a use at runtime is in the static
ud-chain of that use** (the static sets over-approximate every
interleaving, every input, every trip count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..ir.defs import Definition, Use
from ..lang import ast
from ..pfg.graph import ParallelFlowGraph
from ..reachdefs.result import ReachingDefsResult
from .state import Env


@dataclass(frozen=True)
class UseObservation:
    """At runtime, reading ``use.var`` yielded the value written by
    ``definition`` (``None`` = nondeterministic input / uninitialized)."""

    use: Use
    definition: Optional[Definition]


@dataclass(frozen=True)
class MergeObservation:
    """At a join or wait block, several distinct writes of one variable
    competed; ``winner`` was taken."""

    site: str
    var: str
    candidates: Tuple[Optional[Definition], ...]
    winner: Optional[Definition]


@dataclass
class RunResult:
    """Outcome of one interpreted execution."""

    final_env: Env
    uses: List[UseObservation] = field(default_factory=list)
    merges: List[MergeObservation] = field(default_factory=list)
    deadlocked: bool = False
    #: On deadlock, the (sorted, distinct) event names the blocked threads
    #: were waiting on — the CLI's ``DEADLOCK (blocked on: ...)`` detail.
    blocked_events: List[str] = field(default_factory=list)
    steps: int = 0
    inputs: Dict[str, object] = field(default_factory=dict)
    #: Block names in global execution order, one entry per executed
    #: statement / passed wait / taken branch — the dynamic ordering
    #: oracle for Preserved-set validation.
    node_trace: List[str] = field(default_factory=list)

    def value(self, var: str):
        """Final value of ``var`` (None if never written)."""
        cell = self.final_env.get(var)
        return cell.value if cell is not None else None

    def first_step_of(self, site: str) -> Optional[int]:
        try:
            return self.node_trace.index(site)
        except ValueError:
            return None

    def last_step_of(self, site: str) -> Optional[int]:
        for i in range(len(self.node_trace) - 1, -1, -1):
            if self.node_trace[i] == site:
                return i
        return None


class StmtLocationIndex:
    """Statement / condition → PFG coordinates, by object identity."""

    def __init__(self, graph: ParallelFlowGraph):
        self.graph = graph
        self._stmt_loc: Dict[int, Tuple[str, int]] = {}
        self._cond_loc: Dict[int, Tuple[str, int]] = {}
        self._def_of_stmt: Dict[int, Definition] = {}
        for node in graph.nodes:
            for ordinal, stmt in enumerate(node.stmts):
                self._stmt_loc[id(stmt)] = (node.name, ordinal)
            if node.cond is not None:
                self._cond_loc[id(node.cond)] = (node.name, len(node.stmts))
        for d in graph.defs:
            if d.stmt is not None:
                self._def_of_stmt[id(d.stmt)] = d

    def of_stmt(self, stmt: ast.Stmt) -> Tuple[str, int]:
        return self._stmt_loc[id(stmt)]

    def of_cond(self, cond: ast.Expr) -> Optional[Tuple[str, int]]:
        return self._cond_loc.get(id(cond))

    def definition(self, stmt: ast.Assign) -> Definition:
        return self._def_of_stmt[id(stmt)]


@dataclass(frozen=True)
class SoundnessViolation:
    """A dynamic observation outside the static over-approximation."""

    observation: UseObservation
    static_defs: Tuple[Definition, ...]

    def format(self) -> str:
        seen = self.observation.definition
        names = ", ".join(sorted(d.name for d in self.static_defs)) or "∅"
        return (
            f"use {self.observation.use.name} observed {seen.name if seen else 'input'}"
            f" but static ud-chain is {{{names}}}"
        )


def check_soundness(
    result: ReachingDefsResult,
    run: RunResult,
    ud: Optional[Dict[Use, FrozenSet[Definition]]] = None,
) -> List[SoundnessViolation]:
    """All dynamic use observations of ``run`` not covered by the static
    ud-chains of ``result``.  Empty list ⇔ the run is explained.

    ``ud`` is ``result.ud_chains()`` when the caller checks several runs
    against one result; it is built here otherwise."""
    violations: List[SoundnessViolation] = []
    # inputs carry no definition; nothing to check
    observed = [obs for obs in run.uses if obs.definition is not None]
    if observed and ud is None:
        ud = result.ud_chains()
    for obs in observed:
        static = ud.get(obs.use)
        if static is None:
            static = result.reaching_use(obs.use)
        if obs.definition not in static:
            violations.append(
                SoundnessViolation(observation=obs, static_defs=tuple(sorted(static, key=lambda d: d.index)))
            )
    return violations
