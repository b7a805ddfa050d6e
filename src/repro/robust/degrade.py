"""Graceful-degradation ladder: sound answers under failure.

The precise analysis can be unusable for two very different reasons:

* **it cannot be afforded** — an adversarial graph makes the fixpoint
  (or the Preserved approximation) exceed its
  :class:`~repro.dataflow.budget.ResourceBudget`;
* **it cannot be trusted** — the graph violates structural invariants
  (:func:`repro.pfg.validate_pfg`), or synchronization lint finds the
  §6 correctness assumption broken (stale events, deadlocking waits —
  exactly the paper's own Figure 3 caveat, where executions escape the
  static sets; see ``tests/regression/test_fig3_stale_event.py``).

Rather than crash or return something unsound, the ladder falls back
stepwise, each rung strictly more conservative and strictly cheaper:

====  ==============  =====================================================
rung  name            what is given up
====  ==============  =====================================================
0     ``full``        nothing — synch-aware §6 (or §5/§2 where applicable)
1     ``no-preserved`` the post→wait ordering information: the §6 system
                      runs with empty Preserved sets, so ``SynchPass`` is
                      empty and no synchronization kill is ever claimed —
                      the paper's own worst case, sound by construction
                      (synchronization edges still carry flow)
2     ``conservative`` all kill machinery: accumulate-only flow over every
                      edge kind (:mod:`repro.reachdefs.conservative`) —
                      cannot fail, cannot be unsound, has no precision
====  ==============  =====================================================

Every degraded result is stamped with a :class:`DegradationRecord`
(level, reason, budget spent per attempt) which the driver threads into
the :class:`~repro.driver.OptimizationReport` and the CLI and
observability sinks surface (``driver.degradations`` counter, ``degrade``
span).  Budgets are renewed per rung (``budget.fresh()``): a fallback
gets the same allowance the failed attempt had, and the record reports
the aggregate spend.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..analysis.synclint import SyncIssueKind, lint_synchronization
from ..dataflow.budget import NonConvergenceError, ResourceBudget
from ..lang import ast
from ..obs import get_metrics, get_tracer
from ..pfg import validate_pfg
from ..pfg.graph import ParallelFlowGraph
from ..pfg.validate import PFGInvariantError
from ..reachdefs import (
    ReachingDefsResult,
    equation_family,
    solve_conservative,
    solve_system,
)

#: Synchronization-lint kinds under which the §6 Preserved machinery is
#: no longer justified (its "every post executable before its wait"
#: assumption fails) — the ladder drops to ``no-preserved`` for these.
BLOCKING_SYNC_ISSUES = frozenset(
    {
        SyncIssueKind.WAIT_WITHOUT_POST,
        SyncIssueKind.WAIT_ONLY_ORDERED_AFTER,
        SyncIssueKind.STALE_EVENT,
    }
)


class DegradationLevel(enum.IntEnum):
    """Ladder rungs, in decreasing precision."""

    FULL = 0
    NO_PRESERVED = 1
    CONSERVATIVE = 2


_LEVEL_NAMES = {
    DegradationLevel.FULL: "full",
    DegradationLevel.NO_PRESERVED: "no-preserved",
    DegradationLevel.CONSERVATIVE: "conservative",
}

#: The record's opening reason when a caller starts the ladder below
#: ``full`` — only the serve admission policy does, under load.
START_REASONS = {
    DegradationLevel.NO_PRESERVED: "admission degradation policy: preserved sets disabled under load",
    DegradationLevel.CONSERVATIVE: "admission degradation policy: conservative-only under load",
}


@dataclass
class DegradationRecord:
    """Provenance of a degraded analysis: which rung produced the result,
    why the higher rungs were abandoned, and what the attempts cost."""

    level: DegradationLevel
    reason: str
    budget_spent: Dict[str, object]

    @property
    def level_name(self) -> str:
        return _LEVEL_NAMES[self.level]

    def as_dict(self) -> Dict[str, object]:
        return {
            "level": int(self.level),
            "level_name": self.level_name,
            "reason": self.reason,
            "budget_spent": dict(self.budget_spent),
        }

    def format(self) -> str:
        msg = f"degraded to level {int(self.level)} ({self.level_name}): {self.reason}"
        spent = self.budget_spent
        if any(spent.values()):
            msg += (
                f" [{spent['seconds']}s, {spent['passes']} passes, "
                f"{spent['updates']} updates]"
            )
        return msg


def _aggregate_spend(budgets: List[ResourceBudget]) -> Dict[str, object]:
    total = {"seconds": 0.0, "passes": 0, "updates": 0}
    for b in budgets:
        spent = b.spent()
        total["seconds"] = round(total["seconds"] + float(spent["seconds"]), 6)
        total["passes"] += int(spent["passes"])
        total["updates"] += int(spent["updates"])
    return total


def analyze_with_degradation(
    source: Union[ast.Program, ParallelFlowGraph],
    backend: str = "bitset",
    order: str = "document",
    solver: str = "stabilized",
    preserved: str = "approx",
    budget: Optional[ResourceBudget] = None,
    dense=None,
    start: DegradationLevel = DegradationLevel.FULL,
) -> Tuple[ReachingDefsResult, Optional[DegradationRecord]]:
    """Analyze with the ladder above; always returns a sound result.

    Returns ``(result, record)`` where ``record`` is ``None`` when the
    full-precision analysis succeeded.  The ladder:

    1. ``validate_pfg`` fails → straight to ``conservative`` (the precise
       systems' assumptions about the graph shape don't hold);
    2. synchronization lint reports a blocking issue
       (:data:`BLOCKING_SYNC_ISSUES`) → start at ``no-preserved``;
    3. any rung exhausting its (renewed) budget → next rung.  A rung that
       would solve the very system that just failed is skipped: without
       Preserved sets to drop (a §5/§2 program, or ``preserved="none"``)
       ``full`` falls straight to ``conservative``.

    ``start`` begins lower down: the serve admission policy's levels 1
    and 2 (:data:`START_REASONS` names them in the record).  On a §5/§2
    program rung 1 is its own system, stamped as the rung it was asked
    for.

    ``solver`` / ``dense`` select the fixpoint engine and dense-region
    configuration exactly as in :func:`repro.analyze`; every precise rung
    uses them (the terminal conservative rung is solver-independent).
    """
    from ..dataflow.cache import cached_build_pfg

    graph = source if isinstance(source, ParallelFlowGraph) else cached_build_pfg(source)
    tracer = get_tracer()
    metrics = get_metrics()
    start = DegradationLevel(start)
    uses_sync = equation_family(graph) == "synch"
    reasons: List[str] = [START_REASONS[start]] if start in START_REASONS else []
    spends: List[ResourceBudget] = []

    def record(level: DegradationLevel) -> DegradationRecord:
        rec = DegradationRecord(
            level=level,
            reason="; ".join(reasons) or "unspecified",
            budget_spent=_aggregate_spend(spends),
        )
        if metrics.enabled:
            metrics.inc("driver.degradations")
            metrics.inc(f"driver.degradations.level{int(level)}")
        return rec

    def attempt(level: DegradationLevel, rung_preserved: str) -> Optional[ReachingDefsResult]:
        rung_budget = budget.fresh() if budget is not None else None
        if rung_budget is not None:
            spends.append(rung_budget)
        try:
            with tracer.span("analyze-attempt", level=_LEVEL_NAMES[level]):
                result = solve_system(
                    graph, backend=backend, order=order, solver=solver,
                    preserved=rung_preserved, budget=rung_budget, dense=dense,
                )
        except NonConvergenceError as err:
            reasons.append(f"{_LEVEL_NAMES[level]} analysis did not converge: {err.reason}")
            return None
        if not result.stats.converged:  # pragma: no cover - solvers raise instead
            reasons.append(f"{_LEVEL_NAMES[level]} analysis returned unconverged stats")
            return None
        return result

    def conservative() -> Tuple[ReachingDefsResult, DegradationRecord]:
        with tracer.span("degrade", level="conservative"):
            result = solve_conservative(graph, backend=backend, order=order)
        return result, record(DegradationLevel.CONSERVATIVE)

    if start is DegradationLevel.CONSERVATIVE:
        return conservative()
    try:
        validate_pfg(graph)
    except PFGInvariantError as err:
        first = err.violations[0]
        more = f" (+{len(err.violations) - 1} more)" if len(err.violations) > 1 else ""
        reasons.append(f"malformed graph: {first}{more}")
        return conservative()

    if start is DegradationLevel.FULL and uses_sync and preserved == "approx":
        blocking = sorted(
            {i.kind.value for i in lint_synchronization(graph) if i.kind in BLOCKING_SYNC_ISSUES}
        )
        if blocking:
            reasons.append(
                "synchronization lint voids the Preserved assumption: " + ", ".join(blocking)
            )
            start = DegradationLevel.NO_PRESERVED

    if start is DegradationLevel.FULL:
        result = attempt(DegradationLevel.FULL, preserved)
        if result is not None:
            return result, None
        if not uses_sync or preserved == "none":
            return conservative()
    result = attempt(DegradationLevel.NO_PRESERVED, "none")
    if result is not None:
        return result, record(DegradationLevel.NO_PRESERVED)
    return conservative()
