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

The sets are int masks over node ids (``PFGNode.id``), as
``GraphIndex.control_reach`` is; a row is decoded into a frozenset of
nodes only when ``PreservedResult.preserved`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional

from ..dataflow.budget import NonConvergenceError, ResourceBudget, check_budget
from ..dataflow.framework import SolveStats
from ..pfg.concurrency import mutually_exclusive
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .result import EncodedRows, IndexDecoder

PreservedMap = Mapping[PFGNode, FrozenSet[PFGNode]]


@dataclass
class PreservedResult:
    """Preserved sets plus iteration metadata.

    ``masks[n] >> p.id & 1`` iff ``p ∈ Preserved(n)``; ``preserved`` is
    the same sets as a read-only mapping that decodes a row on its first
    read (adding to ``reachdefs.preserved.rows``) and keeps it.
    """

    masks: Dict[PFGNode, int]
    passes: int
    nodes: List[PFGNode] = field(repr=False)
    preserved: PreservedMap = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        decoder = IndexDecoder(self.nodes)
        self.preserved = EncodedRows(self.masks, decoder, "reachdefs.preserved.rows")

    def __getitem__(self, node: PFGNode) -> FrozenSet[PFGNode]:
        return self.preserved[node]

    def names(self, node: PFGNode) -> FrozenSet[str]:
        return frozenset(p.name for p in self.preserved[node])


class _PreservedSnapshot:
    """Adapter handing :func:`~repro.dataflow.budget.check_budget` a
    name-keyed copy of the partial Preserved sets (masks by node id)."""

    def __init__(self, nodes: List[PFGNode], masks: List[int]):
        self._decode = IndexDecoder(nodes).decode
        self._nodes, self._masks = nodes, masks

    def snapshot(self):
        return {
            "Preserved": {
                n.name: frozenset(p.name for p in self._decode(self._masks[n.id]))
                for n in self._nodes
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

    Each node's update is compiled once into ``(id, forward-predecessor
    bits, their ids, (post id, post bit) at a wait, sole-releaser bits,
    keep)``; a sweep is then a few int operations per node.

    Guarded like the solvers: exhausting ``max_passes`` (or the optional
    ``budget``) raises a typed
    :class:`~repro.dataflow.budget.NonConvergenceError` carrying iteration
    stats and the partial Preserved sets, never a silent partial result.
    """
    if budget is not None:
        budget.start()
    nodes = graph.nodes
    index = graph.index()
    order = index.rpo
    forward_preds = index.forward_preds

    # Parallel-do iterations: a block sharing a parallel-do body with
    # ``node`` runs once per iteration, and another iteration's instance
    # may still be running when this one's ``node`` begins — forward
    # ancestry within the body orders only the same iteration, which is
    # weaker than Preserved's all-executions claim.  ``keep`` drops such
    # blocks (including ``node`` itself).  Blocks outside the construct
    # complete before every iteration and stay.
    body: Dict[int, int] = {}
    for node in nodes:
        for c in node.pardo_ids:
            body[c] = body.get(c, 0) | 1 << node.id

    # The posts of an event that are each, when executed, the unique
    # possible releaser of its waits: mutually exclusive with every other.
    sole: Dict[str, int] = {}
    plan = []
    for node in order:
        preds = forward_preds[node]
        bits = 0
        for p in preds:
            bits |= 1 << p.id
        posts, sole_bits = (), 0
        if node.is_wait:
            event = node.wait_event
            of_event = graph.posts_of_event.get(event, [])
            posts = tuple((p.id, 1 << p.id) for p in of_event)
            if event not in sole:
                sole[event] = 0
                for p in of_event:
                    if all(q is p or mutually_exclusive(graph, p, q) for q in of_event):
                        sole[event] |= 1 << p.id
            sole_bits = sole[event]
        keep = -1
        for c in node.pardo_ids:
            keep &= ~body[c]
        plan.append((node.id, bits, tuple(p.id for p in preds), posts, sole_bits, keep))

    pres = [0] * len(nodes)
    passes = 0
    changed = True
    shim = _PreservedSnapshot(nodes, pres)
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
        for i, bits, pred_ids, posts, sole_bits, keep in plan:
            acc = pres[i] | bits
            for p in pred_ids:
                acc |= pres[p]
            if posts:
                common = -1
                for p, bit in posts:
                    common &= pres[p] | bit
                acc |= common | sole_bits
            acc &= keep
            if acc != pres[i]:
                pres[i] = acc
                changed = True
    return PreservedResult({n: pres[n.id] for n in nodes}, passes, nodes)


def empty_preserved(graph: ParallelFlowGraph) -> PreservedResult:
    """The "no ordering information" mode (paper §6's worst case): all
    Preserved sets empty.  Synchronization effects are then lost at merges
    — conservative but still sound."""
    return PreservedResult(dict.fromkeys(graph.nodes, 0), 0, graph.nodes)


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
        masks = {n: sum(1 << p.id for p in set(oracle.get(n, ()))) for n in graph.nodes}
        return PreservedResult(masks, 0, graph.nodes)
    raise ValueError(f"unknown preserved mode {mode!r}; choose approx, none or oracle")
