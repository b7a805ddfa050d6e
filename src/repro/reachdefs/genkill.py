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
nothing else), and the labels decide it for a whole class at once.  One
walk builds, as int masks over definition indices, ``own(n)``, ``defs(v)``
and the definitions of the nodes of each construct (``Construct[cid]``),
each section (``Section[cid, s]``) and each parallel-do body
(``Pardo[p]``).  The definitions a class ``c`` may run alongside are::

    ConcDefs(c) = ⋃_{(cid, s) ∈ path(c)} (Construct[cid] ^ Section[cid, s])
                  ∪ ⋃_{p ∈ pardo(c)} Pardo[p]

— another section of a construct that holds ``c``, or any block of a
parallel-do body that holds ``c``, ``c`` itself included, since iterations
run in parallel.  Per node::

    OtherDefs(n)    = (⋃_{v defined in n} defs(v)) ^ own(n)
    ParallelKill(n) = ConcDefs(c(n)) & OtherDefs(n)
    Kill(n)         = OtherDefs(n) ^ ParallelKill(n)

No pair of nodes is queried.  ``ConcDefs`` is built once per class that
needs it and kept (:meth:`GenKillInfo.concurrent_defs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from ..ir.defs import Definition
from ..obs import get_metrics, get_tracer
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from .result import EncodedRows, IndexDecoder

DefSet = FrozenSet[Definition]


@dataclass
class GenKillInfo:
    """Per-node local sets as int masks over definition indices.

    ``gen``, ``kill``, ``parallel_kill``, ``other_defs`` and ``own`` (a
    node's own definitions) map each node to a frozenset of
    :class:`Definition`: :class:`~repro.reachdefs.result.EncodedRows` whose
    ``masks`` are the int masks, each row decoded on its first read
    (counter ``reachdefs.genkill.rows``).  ``var_defs`` is every
    definition of a variable, and ``construct``/``section``/``pardo`` are
    the label masks :meth:`concurrent_defs` reads.
    """

    gen: EncodedRows
    kill: EncodedRows
    parallel_kill: EncodedRows
    other_defs: EncodedRows
    own: EncodedRows
    #: definition -> node containing it
    def_node: Dict[Definition, PFGNode]
    var_defs: Dict[str, int]
    construct: Dict[int, int]
    section: Dict[Tuple[int, int], int]
    pardo: Dict[int, int]
    #: ConcDefs by class label, built on first use
    conc: Dict[tuple, int] = field(default_factory=dict, repr=False, compare=False)

    def concurrent_defs(self, node: PFGNode) -> int:
        """The mask of the definitions whose node may run alongside
        ``node``: bit ``d`` is ``concurrent(node, def_node[d])``."""
        key = (node.pardo_ids, node.section_path)
        mask = self.conc.get(key)
        if mask is None:
            mask = 0
            construct, section, pardo = self.construct, self.section, self.pardo
            for entry in node.section_path:
                mask |= construct.get(entry[0], 0) ^ section.get(entry, 0)
            for p in node.pardo_ids:
                mask |= pardo.get(p, 0)
            self.conc[key] = mask
        return mask


def compute_genkill(graph: ParallelFlowGraph) -> GenKillInfo:
    """Compute all local sets for every node of ``graph``.

    Memoized **on the graph object** (``graph._genkill_memo``): the
    tables are keyed by node identity, so they are only meaningful for
    the exact graph they were computed from, never for a *different*
    build of the same program.  The graph's ``_invalidate`` hook drops the memo on any
    structural mutation.  Hit/miss totals land in ``cache.genkill.*``
    when an observability session is installed; a miss runs under a
    ``genkill`` span and adds the classes whose ``ConcDefs`` it built to
    ``reachdefs.genkill.classes``.
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
        info = _local_sets(graph)
        classes = len(info.conc)
        span.annotate(classes=classes)
    if metrics.enabled:
        metrics.inc("reachdefs.genkill.classes", classes)
    graph._genkill_memo = info
    return info


def _local_sets(graph: ParallelFlowGraph) -> GenKillInfo:
    """The local sets of ``graph``: one walk over the nodes builds
    ``own``, ``defs(v)`` and the label masks, and a second over the nodes
    that define something their sets."""
    nodes = graph.nodes
    # a node without definitions keeps 0 in every table
    gen, kill, parallel_kill, other_defs, own = (dict.fromkeys(nodes, 0) for _ in range(5))
    def_node: Dict[Definition, PFGNode] = {}
    var_defs: Dict[str, int] = {}
    construct: Dict[int, int] = {}
    section: Dict[Tuple[int, int], int] = {}
    pardo: Dict[int, int] = {}
    defining = []
    for node in nodes:
        defs = node.defs
        if not defs:
            continue
        mask = 0
        for d in defs:
            def_node[d] = node
            bit = 1 << d.index
            mask |= bit
            var_defs[d.var] = var_defs.get(d.var, 0) | bit
        own[node] = mask
        defining.append(node)
        for entry in node.section_path:
            construct[entry[0]] = construct.get(entry[0], 0) | mask
            section[entry] = section.get(entry, 0) | mask
        for p in node.pardo_ids:
            pardo[p] = pardo.get(p, 0) | mask

    decoder = IndexDecoder(graph.defs)
    info = GenKillInfo(
        *(
            EncodedRows(rows, decoder, "reachdefs.genkill.rows")
            for rows in (gen, kill, parallel_kill, other_defs, own)
        ),
        def_node=def_node,
        var_defs=var_defs,
        construct=construct,
        section=section,
        pardo=pardo,
    )
    concurrent_defs = info.concurrent_defs
    for node in defining:
        defs, mask = node.defs, own[node]
        if len(defs) == 1:
            gen[node] = mask
            others = var_defs[defs[0].var] ^ mask
        else:
            # the last definition of each variable is downward exposed
            last = {d.var: d.index for d in defs}
            exposed = union = 0
            for var, index in last.items():
                exposed |= 1 << index
                union |= var_defs[var]
            gen[node] = exposed
            others = union ^ mask
        if others:
            par = concurrent_defs(node) & others
            other_defs[node] = others
            parallel_kill[node] = par
            kill[node] = others ^ par
    return info


def sequential_kill(info: GenKillInfo, node: PFGNode) -> DefSet:
    """The classical (concurrency-blind) kill set — everything in
    ``OtherDefs``.  Used by the sequential equations, including when they
    are (unsoundly) applied to a parallel graph as a baseline."""
    return info.other_defs[node]
