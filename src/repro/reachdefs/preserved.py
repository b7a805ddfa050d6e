"""Preserved-set approximation (paper §6; Callahan & Subhlok [3]).

``p ∈ Preserved(n)`` iff in every execution in which both ``p`` and ``n``
execute, ``p`` completes before ``n`` begins.  Exact computation is
Co-NP-hard; the paper plugs a conservative data-flow approximation into its
synchronized equations.  We implement the approximation spelled out in
DESIGN.md §2:

1. **Forward control ancestors.**  Over forward (non-back) sequential and
   parallel control edges, ``Preserved(n) ⊇ ⋃_{p ∈ fwd_pred(n)}
   (Preserved(p) ∪ {p})``.  Union — not intersection — because the
   definition is vacuous for nodes on the branch not taken: both arms of a
   conditional are preserved at the merge.  Back edges are excluded: the
   relation is per construct-instance (one loop iteration), exactly how the
   paper reads its Figure 3 example.

2. **Posts at a wait.**  For a wait node ``w`` on event ``e`` with posts
   ``P``:

   * whichever post released ``w`` has completed, so everything common to
     all posts has: add ``⋂_{p∈P} (Preserved(p) ∪ {p})``;
   * a post ``p`` that is *mutually exclusive* with every other post in
     ``P`` is, when executed, the unique possible releaser, hence itself
     preserved: add ``{p}``.

Both rules only ever add nodes that are genuinely ordered before ``w``
(soundness is property-tested against interpreter traces in
``tests/property/test_preserved_sound.py``).  The rules reproduce the
paper's ``Preserved(8) = {Entry, 1, 2, 3, 4, 5, 7}`` for Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional

from ..dataflow.budget import NonConvergenceError, ResourceBudget, check_budget
from ..dataflow.framework import SolveStats
from ..pfg.concurrency import mutually_exclusive
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode

PreservedMap = Mapping[PFGNode, FrozenSet[PFGNode]]


@dataclass
class PreservedResult:
    """Preserved sets plus iteration metadata."""

    preserved: Dict[PFGNode, FrozenSet[PFGNode]]
    passes: int

    def __getitem__(self, node: PFGNode) -> FrozenSet[PFGNode]:
        return self.preserved[node]

    def names(self, node: PFGNode) -> FrozenSet[str]:
        return frozenset(p.name for p in self.preserved[node])


class _PreservedSnapshot:
    """Adapter handing :func:`~repro.dataflow.budget.check_budget` a
    name-keyed copy of the partial Preserved sets."""

    def __init__(self, preserved: Dict[PFGNode, FrozenSet[PFGNode]]):
        self._preserved = preserved

    def snapshot(self):
        return {
            "Preserved": {
                n.name: frozenset(p.name for p in s) for n, s in self._preserved.items()
            }
        }


def compute_preserved(
    graph: ParallelFlowGraph,
    max_passes: int = 1000,
    budget: Optional[ResourceBudget] = None,
) -> PreservedResult:
    """Fixpoint of the approximation above (monotone, so round-robin over
    reverse postorder converges quickly — one pass for DAGs without sync,
    a few with post/wait chains).

    Guarded like the solvers: exhausting ``max_passes`` (or the optional
    ``budget``) raises a typed
    :class:`~repro.dataflow.budget.NonConvergenceError` carrying iteration
    stats and the partial Preserved sets, never a silent partial result.
    """
    if budget is not None:
        budget.start()
    order = graph.reverse_postorder()
    forward_preds = graph.index().forward_preds
    preserved: Dict[PFGNode, FrozenSet[PFGNode]] = {n: frozenset() for n in graph.nodes}

    # Precompute, per wait node, which posts are sole-releaser candidates.
    sole_releaser: Dict[PFGNode, List[PFGNode]] = {}
    posts_for_wait: Dict[PFGNode, List[PFGNode]] = {}
    for wait in graph.waits:
        assert wait.wait_event is not None
        posts = graph.posts_of_event.get(wait.wait_event, [])
        posts_for_wait[wait] = posts
        sole_releaser[wait] = [
            p
            for p in posts
            if all(q is p or mutually_exclusive(graph, p, q) for q in posts)
        ]

    passes = 0
    changed = True
    shim = _PreservedSnapshot(preserved)
    stats = SolveStats(order="preserved/rpo")
    while changed:
        if passes >= max_passes:
            raise NonConvergenceError(
                stats,
                reason=f"preserved-set pass cap max_passes={max_passes} hit",
                snapshot=shim.snapshot(),
            )
        if budget is not None:
            budget.charge_pass()
            budget.charge_updates(len(order))
            check_budget(budget, stats, shim)
        passes += 1
        stats.passes = passes
        stats.node_updates += len(order)
        changed = False
        for node in order:
            acc = set(preserved[node])
            for p in forward_preds[node]:
                acc.add(p)
                acc |= preserved[p]
            if node.is_wait:
                posts = posts_for_wait[node]
                if posts:
                    common: Optional[set] = None
                    for p in posts:
                        through = preserved[p] | {p}
                        common = set(through) if common is None else (common & through)
                    acc |= common or set()
                    acc.update(sole_releaser[node])
            # Parallel-do iterations: a block sharing a parallel-do body
            # with ``node`` runs once per iteration, and another
            # iteration's instance may still be running when this one's
            # ``node`` begins — forward ancestry within the body orders
            # only the same iteration, which is weaker than Preserved's
            # all-executions claim.  Drop such blocks (including ``node``
            # itself).  Blocks outside the construct complete before every
            # iteration and stay.
            if node.pardo_ids:
                shared = set(node.pardo_ids)
                acc = {m for m in acc if not (shared & set(m.pardo_ids))}
            new = frozenset(acc)
            if new != preserved[node]:
                preserved[node] = new
                changed = True
    return PreservedResult(preserved=preserved, passes=passes)


def empty_preserved(graph: ParallelFlowGraph) -> PreservedResult:
    """The "no ordering information" mode (paper §6's worst case): all
    Preserved sets empty.  Synchronization effects are then lost at merges
    — conservative but still sound."""
    return PreservedResult(preserved={n: frozenset() for n in graph.nodes}, passes=0)


def resolve_preserved(
    graph: ParallelFlowGraph,
    mode: str = "approx",
    oracle: Optional[PreservedMap] = None,
    budget: Optional[ResourceBudget] = None,
) -> PreservedResult:
    """Resolve a user-facing ``preserved=`` parameter.

    ``"approx"`` — the approximation above (default);
    ``"none"``   — empty sets (ablation / worst case);
    ``"oracle"`` — caller-supplied sets (tests), via ``oracle``.
    """
    if mode == "approx":
        return compute_preserved(graph, budget=budget)
    if mode == "none":
        return empty_preserved(graph)
    if mode == "oracle":
        if oracle is None:
            raise ValueError("preserved mode 'oracle' requires an oracle mapping")
        full = {n: frozenset(oracle.get(n, frozenset())) for n in graph.nodes}
        return PreservedResult(preserved=full, passes=0)
    raise ValueError(f"unknown preserved mode {mode!r}; choose approx, none or oracle")
