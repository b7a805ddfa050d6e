"""Resource budgets and typed non-convergence for guarded solver runs.

The paper's value proposition is *soundness*: reaching-definition sets
that over-approximate every execution.  A solver that silently stops
short of its fixpoint — or blows past any reasonable cost on an
adversarial graph (fixpoint cost can be super-linear; see "On the
computational complexity of Data Flow Analysis" in PAPERS.md) — breaks
that promise operationally even when the equations are right.  This
module gives every fixpoint computation two guarantees:

* it never runs unbounded: a :class:`ResourceBudget` caps wall-clock
  time, sweep passes and node updates, checked cheaply inside the
  solver loops;
* it never fails silently: exceeding a budget (or a solver's own
  terminal ``max_passes`` safety net) raises
  :class:`NonConvergenceError`, which carries the iteration
  :class:`~repro.dataflow.framework.SolveStats`, the *partial* state
  snapshot at the moment of abandonment, and a human-readable reason —
  everything a caller needs to report the failure or degrade gracefully
  (see :mod:`repro.robust` and the driver's degradation ladder).

Budgets are deliberately dumb records with explicit ``charge_*`` calls
rather than context managers wrapping the solvers: the solvers own
their loops, and the checks must sit inside them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from .framework import FixpointDiverged, SolveStats


class NonConvergenceError(FixpointDiverged):
    """A fixpoint computation was abandoned before convergence.

    Raised when a :class:`ResourceBudget` is exhausted or a solver hits
    its terminal ``max_passes`` safety net.  Subclasses
    :class:`~repro.dataflow.framework.FixpointDiverged` so existing
    ``except FixpointDiverged`` handlers keep working; new code should
    catch this type and inspect:

    ``stats``
        the :class:`~repro.dataflow.framework.SolveStats` at abandonment
        (``converged`` is False);
    ``snapshot``
        the partial solver state (``system.snapshot()`` shape), for
        post-mortem inspection — **not** a sound analysis result;
    ``reason``
        which limit was hit, e.g. ``"deadline 0.5s exceeded"``.
    """

    def __init__(self, stats: SolveStats, reason: str, snapshot: object = None):
        self.reason = reason
        self.snapshot = snapshot
        super().__init__(stats)
        # FixpointDiverged's message lacks the reason; rebuild args.
        self.args = (
            f"no fixpoint after {stats.passes} passes "
            f"({stats.node_updates} updates): {reason}",
        )


class BudgetExceeded(NonConvergenceError):
    """A :class:`ResourceBudget` limit was hit mid-solve (distinct from a
    solver's own terminal pass cap, which signals a likely equation bug
    rather than an operational limit)."""


class ResourceBudget:
    """Wall-clock / pass / update caps for one guarded computation.

    All limits are optional; an empty budget never trips.  ``start()``
    arms the deadline clock and is idempotent per budget; the solvers
    call ``charge_pass()`` once per sweep and ``charge_updates(n)`` for
    node-update batches, then ask :meth:`exceeded`.

    A budget accumulates across every solve it is passed to — handing
    one budget to ``analyze`` bounds the *whole* analysis (Preserved
    computation included), not each stage separately.  :meth:`fresh`
    clones the limits with zeroed meters for ladder-style retries.
    """

    def __init__(
        self,
        deadline_s: Optional[float] = None,
        max_passes: Optional[int] = None,
        max_updates: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if deadline_s is not None and not deadline_s >= 0:
            raise ValueError("deadline_s must be a non-negative number")
        self.deadline_s = deadline_s
        self.max_passes = max_passes
        self.max_updates = max_updates
        self._clock = clock
        self._started_at: Optional[float] = None
        self.passes = 0
        self.updates = 0

    def start(self) -> "ResourceBudget":
        if self._started_at is None:
            self._started_at = self._clock()
        return self

    def charge_pass(self, n: int = 1) -> None:
        self.passes += n

    def charge_updates(self, n: int = 1) -> None:
        self.updates += n

    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def exceeded(self) -> Optional[str]:
        """The first limit that has been hit, as a message — or None."""
        if self.max_passes is not None and self.passes > self.max_passes:
            return f"pass budget {self.max_passes} exceeded ({self.passes} passes)"
        if self.max_updates is not None and self.updates > self.max_updates:
            return f"update budget {self.max_updates} exceeded ({self.updates} updates)"
        if self.deadline_s is not None and self._started_at is not None:
            elapsed = self.elapsed()
            if elapsed > self.deadline_s:
                return f"deadline {self.deadline_s}s exceeded ({elapsed:.3f}s elapsed)"
        return None

    def spent(self) -> Dict[str, object]:
        """What this budget has consumed so far (JSON-ready)."""
        return {
            "seconds": round(self.elapsed(), 6),
            "passes": self.passes,
            "updates": self.updates,
        }

    def fresh(self) -> "ResourceBudget":
        """A new, un-started budget with the same limits (meters at zero)."""
        return ResourceBudget(
            deadline_s=self.deadline_s,
            max_passes=self.max_passes,
            max_updates=self.max_updates,
            clock=self._clock,
        )

    def describe(self) -> str:
        limits = []
        if self.deadline_s is not None:
            limits.append(f"deadline={self.deadline_s}s")
        if self.max_passes is not None:
            limits.append(f"max_passes={self.max_passes}")
        if self.max_updates is not None:
            limits.append(f"max_updates={self.max_updates}")
        return "unbounded" if not limits else " ".join(limits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResourceBudget({self.describe()}, spent={self.spent()})"


def check_budget(
    budget: Optional[ResourceBudget], stats: SolveStats, system
) -> None:
    """Raise :class:`BudgetExceeded` (with a partial snapshot) if
    ``budget`` has a tripped limit.  ``system`` may be None when no
    snapshot is available at the check site."""
    if budget is None:
        return
    reason = budget.exceeded()
    if reason is not None:
        snapshot = system.snapshot() if system is not None else None
        raise BudgetExceeded(stats, reason=reason, snapshot=snapshot)
