"""Reference local sets: the original per-definition-pair computation.

``repro.reachdefs.genkill.compute_genkill`` builds the sets as int masks
from each node's concurrency label; this is the computation it replaced
— one ``concurrent()`` query per pair of a node and a definition of a
variable it defines — kept so the oracle tests can assert both give
equal tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.ir.defs import Definition
from repro.pfg.concurrency import concurrent
from repro.pfg.graph import ParallelFlowGraph
from repro.pfg.node import PFGNode
from repro.reachdefs.genkill import DefSet


@dataclass
class LocalSets:
    """The tables of :class:`~repro.reachdefs.genkill.GenKillInfo`, as
    eager dicts of frozensets."""

    gen: Dict[PFGNode, DefSet]
    kill: Dict[PFGNode, DefSet]
    parallel_kill: Dict[PFGNode, DefSet]
    other_defs: Dict[PFGNode, DefSet]
    def_node: Dict[Definition, PFGNode]


def reference_genkill(graph: ParallelFlowGraph) -> LocalSets:
    def_node: Dict[Definition, PFGNode] = {}
    for node in graph.nodes:
        for d in node.defs:
            def_node[d] = node

    gen: Dict[PFGNode, DefSet] = {}
    kill: Dict[PFGNode, DefSet] = {}
    parallel_kill: Dict[PFGNode, DefSet] = {}
    other_defs: Dict[PFGNode, DefSet] = {}

    for node in graph.nodes:
        gen[node] = frozenset(node.gen_defs())
        own = set(node.defs)
        defined_vars = {d.var for d in node.defs}
        others = set()
        par = set()
        seq = set()
        for var in defined_vars:
            for d in graph.defs.of_var(var):
                if d in own:
                    continue
                others.add(d)
                if concurrent(def_node[d], node):
                    par.add(d)
                else:
                    seq.add(d)
        other_defs[node] = frozenset(others)
        kill[node] = frozenset(seq)
        parallel_kill[node] = frozenset(par)

    return LocalSets(
        gen=gen, kill=kill, parallel_kill=parallel_kill, other_defs=other_defs, def_node=def_node
    )
