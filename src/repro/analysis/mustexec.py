"""Must-execute analysis: which blocks have *definitely* completed.

``MustDone(n)`` = the set of blocks guaranteed to have completed execution
whenever ``n`` begins, in a single construct instance (forward control
edges only).  This is the must-dual of the Preserved union rule:

* sequential merge: only one arm ran → **intersect** over predecessors;
* join: every section ran → **union** over parallel predecessors;
* ordinary/seq edge: predecessor completed → add it.

The paper's induction-variable motivation (§1) rests exactly on this
asymmetry: the body of ``if`` may not execute each iteration, but every
``Parallel Sections`` branch does.  ``always_executes_per_iteration`` asks
whether a block is in ``MustDone(latch)`` of its loop.

Note the contrast with :mod:`repro.reachdefs.preserved`: Preserved answers
"*if* p executed, was it ordered before n?" (union at merges — vacuous
truth for the branch not taken); MustDone answers "did p *certainly*
execute before n?" (intersection at merges).
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Optional

from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from ..reachdefs.result import EncodedRows, IndexDecoder


def compute_must_done(graph: ParallelFlowGraph) -> Mapping[PFGNode, FrozenSet[PFGNode]]:
    """Fixpoint of the MustDone equations over forward control edges.

    Synchronization edges are ignored (waits add ordered-before facts, not
    must-execute facts — a post may be conditional).

    The sets are int masks over node ids, each node's update compiled
    once into ``(id, met, joined)``; the result decodes a row into a
    frozenset of nodes on its first read.
    """
    back = graph.back_edges()
    plan = []
    for node in graph.reverse_postorder():
        seq = tuple(p.id for p in graph.seq_preds(node) if (p, node) not in back)
        par = tuple(p.id for p in graph.par_preds(node))
        if node.is_join:
            # every section ran: union over parallel predecessors
            plan.append((node.id, seq, par))
        else:
            # alternative arrival paths (including a section-entry loop
            # header with a parallel entry edge and a sequential latch):
            # a block certainly ran only if every path says so.
            plan.append((node.id, seq + par, ()))
    # Optimistic start: "everything" for nodes with preds would be the
    # classic dominance-style init; we instead run the pessimistic
    # (grow-from-empty) iteration on the *forward* DAG, where one RPO pass
    # reaches the fixpoint because every forward predecessor precedes its
    # successor in RPO.
    must = [0] * len(graph.nodes)
    changed = True
    while changed:
        changed = False
        for i, met, joined in plan:
            acc = 0
            if met:
                acc = -1
                for p in met:
                    acc &= must[p] | 1 << p
            for p in joined:
                acc |= must[p] | 1 << p
            if acc != must[i]:
                must[i] = acc
                changed = True
    masks = {n: must[n.id] for n in graph.nodes}
    return EncodedRows(masks, IndexDecoder(graph.nodes), "analysis.mustdone.rows")


def loop_body(graph: ParallelFlowGraph, latch: PFGNode, header: PFGNode) -> FrozenSet[PFGNode]:
    """The natural loop of back edge ``latch -> header``: header plus all
    nodes that reach the latch without passing through the header (read
    off the graph's index; ``ValueError`` if the edge is not a back edge)."""
    for loop_header, loop_latch, body in graph.index().loops:
        if loop_header is header and loop_latch is latch:
            return body
    raise ValueError(f"{latch.name} -> {header.name} is not a back edge")


def always_executes_per_iteration(
    graph: ParallelFlowGraph,
    node: PFGNode,
    latch: PFGNode,
    must: Optional[Mapping[PFGNode, FrozenSet[PFGNode]]] = None,
) -> bool:
    """True iff ``node`` is guaranteed to run in every iteration that
    reaches ``latch`` (i.e. ``node ∈ MustDone(latch)``)."""
    if must is None:
        must = compute_must_done(graph)
    return node in must[latch]
