"""May-happen-in-parallel (MHP) and mutual-exclusion queries.

Two nodes *may execute concurrently* iff some parallel construct contains
them in **different sections** — read off the ``section_path`` tags the
builder attached (sound for arbitrary nesting, since a nested construct's
sections share the enclosing section's path prefix).

This drives:

* ``ParallelKill(n)`` — the paper's set of definitions from nodes that can
  execute at the same time as ``n`` (§5);
* the mutual-exclusion side condition in the Preserved-set approximation
  (two ``post`` blocks of one event that sit on opposite branches of the
  same sequential conditional can never both execute in one construct
  instance, so each — when executed — is the unique releaser of a wait).

Mutual exclusion is two bit tests on the graph index's reachability masks.
"""

from __future__ import annotations

from .graph import ParallelFlowGraph
from .node import PFGNode


def concurrent(a: PFGNode, b: PFGNode) -> bool:
    """True iff ``a`` and ``b`` may execute at the same time.

    Two sources of concurrency:

    * some ``Parallel Sections`` construct contains them in *different*
      sections;
    * some ``Parallel Do`` body contains both (distinct iterations run
      the same blocks in parallel) — in that case a block is concurrent
      **with itself**.

    Outside parallel-do bodies a node is never concurrent with itself (a
    single thread executes its own block sequentially).
    """
    if set(a.pardo_ids) & set(b.pardo_ids):
        return True
    if a is b:
        return False
    sections_a = dict(a.section_path)
    for cid, section in b.section_path:
        if cid in sections_a and sections_a[cid] != section:
            return True
    return False


def mutually_exclusive(graph: ParallelFlowGraph, a: PFGNode, b: PFGNode) -> bool:
    """Conservative: True only when at most one of ``a``, ``b`` can execute
    in a single construct instance.

    Criterion: the two nodes are *not* concurrent (so they are ordered or
    exclusive), and neither reaches the other over forward control edges —
    within sequential code that means they sit on disjoint branches of some
    conditional.  Returns False for ``a is b``.
    """
    if a is b or concurrent(a, b):
        return False
    reach = graph.index().control_reach
    return not (reach[a.id] >> b.id & 1 or reach[b.id] >> a.id & 1)
