"""Locally computable sets: ``Gen``, ``Kill``, ``ParallelKill``, ``OtherDefs``.

Paper §5: "as in the sequential dataflow problem, Kill and ParallelKill can
be computed directly and need not be computed using an iterative
algorithm."

Definitions (for node ``n``; ``defs(v)`` is all definitions of ``v``):

* ``Gen(n)``          — downward-exposed definitions of ``n`` (the last
  definition of each variable assigned in ``n`` — earlier same-block
  definitions never escape the block);
* ``OtherDefs(n)``    — definitions *outside* ``n`` of variables that also
  have definitions *inside* ``n`` (paper §6);
* ``Kill(n)``         — the subset of ``OtherDefs(n)`` whose node cannot
  execute concurrently with ``n``;
* ``ParallelKill(n)`` — the subset of ``OtherDefs(n)`` whose node *may*
  execute concurrently with ``n``.

So ``Kill(n) ⊎ ParallelKill(n) = OtherDefs(n)`` by construction.  On a
sequential CFG, ``ParallelKill`` is empty and ``Kill`` coincides with the
classical kill set.

Concurrency depends only on a node's *class*, its ``(pardo_ids,
section_path)`` label (:func:`~repro.pfg.concurrency.concurrent` reads
nothing else), so it is decided once per pair of classes, not once per
pair of definitions.  Each node's sets are then frozenset algebra over
per-(variable, class) definition sets, minus the node's own definitions
(a node never kills its own definitions).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, List, Tuple

from ..ir.defs import Definition
from ..obs import get_metrics, get_tracer
from ..pfg.concurrency import concurrent
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode

DefSet = FrozenSet[Definition]

_EMPTY: DefSet = frozenset()


@dataclass
class GenKillInfo:
    """Per-node local sets, as frozensets of :class:`Definition`."""

    gen: Dict[PFGNode, DefSet]
    kill: Dict[PFGNode, DefSet]
    parallel_kill: Dict[PFGNode, DefSet]
    other_defs: Dict[PFGNode, DefSet]
    #: definition -> node containing it
    def_node: Dict[Definition, PFGNode]


def compute_genkill(graph: ParallelFlowGraph) -> GenKillInfo:
    """Compute all local sets for every node of ``graph``.

    Memoized **on the graph object** (``graph._genkill_memo``): the
    tables are keyed by node identity, so they are only meaningful for
    the exact graph they were computed from, never for a *different*
    build of the same program.  The graph's ``_invalidate`` hook drops the memo on any
    structural mutation.  Hit/miss totals land in ``cache.genkill.*``
    when an observability session is installed; a miss runs under a
    ``genkill`` span and adds the class pairs it decided to
    ``reachdefs.genkill.class_pairs``.
    """
    memo = getattr(graph, "_genkill_memo", None)
    metrics = get_metrics()
    if memo is not None:
        if metrics.enabled:
            metrics.inc("cache.genkill.hits")
        return memo
    if metrics.enabled:
        metrics.inc("cache.genkill.misses")
    with get_tracer().span("genkill", nodes=len(graph.nodes)) as span:
        info, class_pairs = _local_sets(graph)
        span.annotate(class_pairs=class_pairs)
    if metrics.enabled:
        metrics.inc("reachdefs.genkill.class_pairs", class_pairs)
    graph._genkill_memo = info
    return info


def _local_sets(graph: ParallelFlowGraph) -> Tuple[GenKillInfo, int]:
    """The local sets of ``graph`` and the number of class pairs decided."""
    def_node: Dict[Definition, PFGNode] = {}
    label: Dict[PFGNode, int] = {}
    classes: Dict[tuple, int] = {}
    members: List[PFGNode] = []  # one node of each class, by class index
    #: variable -> class -> that class's definitions of the variable
    by_class: Dict[str, Dict[int, List[Definition]]] = {}
    for node in graph.nodes:
        key = (node.pardo_ids, node.section_path)
        cls = classes.get(key)
        if cls is None:
            cls = classes[key] = len(members)
            members.append(node)
        label[node] = cls
        for d in node.defs:
            def_node[d] = node
            by_class.setdefault(d.var, {}).setdefault(cls, []).append(d)
    all_defs = {var: frozenset(chain.from_iterable(parts.values())) for var, parts in by_class.items()}

    decided: Dict[Tuple[int, int], bool] = {}
    parallel_defs: Dict[Tuple[str, int], DefSet] = {}

    def concurrent_defs(var: str, cls: int) -> DefSet:
        """Definitions of ``var`` in classes that may run alongside ``cls``."""
        key = (var, cls)
        found = parallel_defs.get(key)
        if found is None:
            parts = []
            for other, defs in by_class[var].items():
                pair = (cls, other) if cls <= other else (other, cls)
                flag = decided.get(pair)
                if flag is None:
                    flag = decided[pair] = concurrent(members[pair[0]], members[pair[1]])
                if flag:
                    parts.append(defs)
            found = parallel_defs[key] = frozenset(chain.from_iterable(parts)) if parts else _EMPTY
        return found

    gen: Dict[PFGNode, DefSet] = {}
    kill: Dict[PFGNode, DefSet] = {}
    parallel_kill: Dict[PFGNode, DefSet] = {}
    other_defs: Dict[PFGNode, DefSet] = {}
    for node in graph.nodes:
        defs = node.defs
        if not defs:
            gen[node] = kill[node] = parallel_kill[node] = other_defs[node] = _EMPTY
            continue
        own = frozenset(defs)
        cls = label[node]
        if len(defs) == 1:
            var = defs[0].var
            gen[node] = own
            others = all_defs[var] - own
            par = concurrent_defs(var, cls) if others else _EMPTY
        else:
            gen[node] = frozenset(node.gen_defs())
            # variables only this node defines need no concurrency query
            variables = [var for var in {d.var for d in defs} if not all_defs[var] <= own]
            others = _EMPTY.union(*(all_defs[var] for var in variables)) - own
            par = _EMPTY.union(*(concurrent_defs(var, cls) for var in variables))
        other_defs[node] = others
        if par:
            par = par - own
            kill[node] = others - par
            parallel_kill[node] = par
        else:
            kill[node] = others
            parallel_kill[node] = _EMPTY

    info = GenKillInfo(
        gen=gen, kill=kill, parallel_kill=parallel_kill, other_defs=other_defs, def_node=def_node
    )
    return info, len(decided)


def encode_other_defs(graph: ParallelFlowGraph, ops) -> Dict[PFGNode, object]:
    """``OtherDefs(n)`` of every node, encoded by the set backend ``ops``.

    Encoding each set definition by definition costs O(Σ|OtherDefs(n)|),
    quadratic on a chain of redefinitions.  By definition OtherDefs(n) is
    ``⋃_{v defined in n} defs(v)`` minus n's own definitions, which that
    union contains, so each ``defs(v)`` is encoded once and a node's set
    is ``union ^ own``: the sets :func:`compute_genkill` lists, one
    backend operation per variable instead of one per definition.
    """
    by_var: Dict[str, List[Definition]] = {}
    for node in graph.nodes:
        for d in node.defs:
            by_var.setdefault(d.var, []).append(d)
    var_defs = {var: ops.from_defs(defs) for var, defs in by_var.items()}
    empty = ops.empty()
    out: Dict[PFGNode, object] = {}
    for node in graph.nodes:
        defs = node.defs
        if not defs:
            out[node] = empty
            continue
        if len(defs) == 1:
            union = var_defs[defs[0].var]
        else:
            union = empty
            for var in {d.var for d in defs}:
                union |= var_defs[var]
        out[node] = union ^ ops.from_defs(defs)
    return out


def sequential_kill(info: GenKillInfo, node: PFGNode) -> DefSet:
    """The classical (concurrency-blind) kill set — everything in
    ``OtherDefs``.  Used by the sequential equations, including when they
    are (unsoundly) applied to a parallel graph as a baseline."""
    return info.other_defs[node]
