"""Fault injection for the analysis pipeline — deterministic, seeded.

Three perturbation families, all reproducible from a seed:

**Visit orders** (:func:`shuffled_orders`) — feed the solvers randomly
shuffled sweep orders.  The stabilized solver's contract is that the
fixpoint is visit-order independent; the chaos tests pin that across
many seeds rather than trusting the argument in
``solve_stabilized``'s docstring.

**Solver-update faults** (:class:`ChaosSystem`) — a transparent wrapper
around any :class:`~repro.dataflow.framework.EquationSystem` that

* *drops* a bounded number of updates (the update is skipped but
  reported as *changed*, so the solver schedules a retry — a lost
  update may delay convergence but can never fake it: premature
  convergence would require a sweep that reports no change);
* *duplicates* updates (runs them twice — monotone updates are
  idempotent at fixpoint, so this must not alter the result);
* *suppresses* named nodes **persistently** (their equations never
  run).  Unlike drops, suppression is a genuine corruption: the
  returned "fixpoint" under-approximates.  Its purpose is to prove the
  :mod:`repro.robust.selfcheck` oracle *detects* bad results — not by
  luck but on every schedule that exercises the suppressed flow.

**Interpreter schedules** (:func:`chaos_schedulers`) — a spread of
seeded random schedulers (varying seed and loop bounds) for adversarial
dynamic runs, e.g. driving the deadlock detector.

``corrupt_result`` injects corruption *after* a sound analysis: it
removes from a static ``In`` set a definition that a given run actually
observed, guaranteeing the self-check flags the tampered result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterator, List, Sequence, Tuple

from ..interp.scheduler import RandomScheduler
from ..interp.trace import RunResult
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from ..reachdefs.result import ReachingDefsResult
from ..dataflow.solver import make_order


def shuffled_orders(
    graph: ParallelFlowGraph, seeds: Sequence[int]
) -> Iterator[Tuple[int, List[PFGNode]]]:
    """One shuffled sweep order per seed (delegates to
    ``make_order("random:<seed>")`` so chaos and production shuffles
    share one implementation)."""
    for seed in seeds:
        yield seed, make_order(graph, f"random:{seed}")


def chaos_schedulers(
    seeds: Sequence[int], max_loop_iters: int = 2
) -> List[RandomScheduler]:
    """A spread of seeded random interpreter schedulers."""
    return [RandomScheduler(seed=s, max_loop_iters=max_loop_iters) for s in seeds]


@dataclass
class ChaosPlan:
    """Seeded fault-injection plan for one solver run.

    ``drop_rate``/``max_drops`` bound the transient faults: once
    ``max_drops`` updates have been dropped the wrapper behaves honestly,
    which is what keeps the final fixpoint exact (see module docstring).
    ``suppress`` names nodes whose updates never run — persistent,
    corrupting, detection-test fodder.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    max_drops: int = 25
    max_duplicates: int = 100
    suppress: frozenset = field(default_factory=frozenset)  # node names


class ChaosSystem:
    """Equation-system proxy injecting the faults of a :class:`ChaosPlan`.

    Wraps ``update``, and ``update_flow`` / ``update_kill`` when the
    wrapped system has them; everything else (initialization, snapshots,
    the stabilized-solver ``state_key`` and kill-state protocol) passes
    straight through, so any solver accepts the wrapped system wherever
    it accepted the original.
    """

    def __init__(self, system, plan: ChaosPlan):
        self._system = system
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self.dropped = 0
        self.duplicated = 0
        self.suppressed_calls = 0
        # The phase updates exist only where the wrapped system has them:
        # the solvers probe for the stabilized flow/kill protocol with
        # ``hasattr``, so a §2 system must not seem to offer it.
        for name in ("update_flow", "update_kill"):
            update = getattr(system, name, None)
            if update is not None:
                setattr(self, name, partial(self._perturbed, update))

    def __getattr__(self, name):
        return getattr(self._system, name)

    # -- fault core ---------------------------------------------------------

    def _perturbed(self, update, node) -> bool:
        plan = self.plan
        if getattr(node, "name", None) in plan.suppress:
            self.suppressed_calls += 1
            return False
        if (
            plan.drop_rate > 0.0
            and self.dropped < plan.max_drops
            and self._rng.random() < plan.drop_rate
        ):
            self.dropped += 1
            # Claim a change: the solver re-sweeps, the skipped work is
            # retried — a drop can delay the fixpoint, never corrupt it.
            return True
        changed = update(node)
        if (
            plan.duplicate_rate > 0.0
            and self.duplicated < plan.max_duplicates
            and self._rng.random() < plan.duplicate_rate
        ):
            self.duplicated += 1
            changed = update(node) or changed
        return changed

    # -- wrapped update surface --------------------------------------------

    def update(self, node) -> bool:
        return self._perturbed(self._system.update, node)


@dataclass(frozen=True)
class InjectedCorruption:
    """What :func:`corrupt_result` removed, for test assertions."""

    node: str
    definition: str
    use: str

    def format(self) -> str:
        return (
            f"removed {self.definition} from In({self.node}) "
            f"(observed by use {self.use})"
        )


def corrupt_result(
    result: ReachingDefsResult,
    run: RunResult,
    seed: int = 0,
) -> Tuple[ReachingDefsResult, InjectedCorruption]:
    """Return a copy of ``result`` with one observed definition removed
    from the ``In`` set that explains it — a guaranteed-detectable
    corruption.

    The candidate (use, definition) pairs are the run's observations
    whose static explanation flows through the block's ``In`` set (no
    earlier same-block definition shadows it), so removing the
    definition *must* turn that observation into a soundness violation.
    Raises ``ValueError`` when the run observed nothing eligible.
    """
    candidates = []
    for obs in run.uses:
        if obs.definition is None:
            continue
        node = result.graph.node(obs.use.site)
        if node.local_def_before(obs.use.var, obs.use.ordinal) is not None:
            continue
        if obs.definition in result.in_sets[node]:
            candidates.append((node, obs))
    if not candidates:
        raise ValueError(
            "run observed no In-set-explained definition to corrupt; "
            "use a program whose uses read cross-block values"
        )
    node, obs = random.Random(seed).choice(candidates)
    tampered_in = dict(result.in_sets)
    tampered_in[node] = frozenset(d for d in tampered_in[node] if d != obs.definition)
    tampered = replace(result, in_sets=tampered_in)
    return tampered, InjectedCorruption(
        node=node.name, definition=obs.definition.name, use=obs.use.name
    )
