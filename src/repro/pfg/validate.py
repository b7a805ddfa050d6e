"""Structural validation of a Parallel Flow Graph.

``validate_pfg`` checks the invariants every analysis in this package
relies on; it raises :class:`PFGInvariantError` with all violations listed.
Run it in tests and after hand-built graphs (``repro.paper.programs``
builds figure-exact graphs through the normal builder, but users may
construct graphs directly).
"""

from __future__ import annotations

from typing import List

from .edges import EdgeKind
from .graph import ParallelFlowGraph
from .node import NodeKind


class PFGInvariantError(AssertionError):
    """One or more PFG structural invariants are violated."""

    def __init__(self, violations: List[str]):
        self.violations = violations
        super().__init__("PFG invariants violated:\n  " + "\n  ".join(violations))


def validate_pfg(graph: ParallelFlowGraph) -> None:
    """Check all structural invariants; raise :class:`PFGInvariantError`
    listing every violation found."""
    bad: List[str] = []

    if graph.entry is None:
        bad.append("graph has no entry node")
    elif graph.entry.kind is not NodeKind.ENTRY:
        bad.append("entry node is not of kind ENTRY")
    if graph.exit is None:
        bad.append("graph has no exit node")

    names = [n.name for n in graph.nodes]
    if len(set(names)) != len(names):
        dupes = sorted({x for x in names if names.count(x) > 1})
        bad.append(f"duplicate node names: {dupes}")

    # One pass over the nodes and their out-edges; the definition checks
    # are reported after the reachability ones.
    succs = graph._succs
    misplaced_defs: List[str] = []
    n_defs = 0
    for node in graph.nodes:
        kind = node.kind
        name = node.name
        # Extended-basic-block shape.
        if node.post_event is not None and node.cond is not None:
            bad.append(f"{name}: has both a post and a branch at block end")
        if kind is NodeKind.FORK:
            if node.stmts or node.post_event or node.cond or node.wait_event:
                bad.append(f"{name}: fork node carries statements")
            if node.join is None:
                bad.append(f"{name}: fork without matching join")
            elif node.join.fork is not node:
                bad.append(f"{name}: fork/join links inconsistent")
            if node.construct_id is None:
                bad.append(f"{name}: fork without construct id")
        elif kind is NodeKind.JOIN:
            if node.fork is None:
                bad.append(f"{name}: join without matching fork")
            if not graph.par_preds(node):
                bad.append(f"{name}: join with no parallel predecessors")
        # Edge-kind placement.
        par_out = control_out = False
        for dst, edge_kind in succs[node]:
            if edge_kind is EdgeKind.SYNC:
                if node.post_event is None:
                    bad.append(f"{name} -> {dst.name}: SYNC edge from a non-post block")
                if dst.wait_event is None:
                    bad.append(f"{name} -> {dst.name}: SYNC edge into a non-wait block")
                elif node.post_event is not None and node.post_event != dst.wait_event:
                    bad.append(f"{name} -> {dst.name}: SYNC edge across different events")
                continue
            control_out = True
            if edge_kind is EdgeKind.PAR:
                par_out = True
                if not (kind is NodeKind.FORK or dst.kind is NodeKind.JOIN):
                    bad.append(f"{name} -> {dst.name}: PAR edge not at a fork or into a join")
        if kind is NodeKind.FORK and not par_out:
            bad.append(f"{name}: fork with no parallel successors")
        if kind is NodeKind.EXIT and control_out:
            bad.append(f"{name}: exit node has successors")
        # Definition table is consistent with node contents.
        for d in node.defs:
            if d.site != name:
                misplaced_defs.append(f"definition {d} recorded in block {name}")
        n_defs += len(node.defs)

    # Every node (except entry) is reachable over control edges.
    if graph.entry is not None:
        reachable = set()
        stack = [graph.entry]
        while stack:
            cur = stack.pop()
            if cur in reachable:
                continue
            reachable.add(cur)
            stack.extend(dst for dst, edge_kind in succs[cur] if edge_kind is not EdgeKind.SYNC)
        for node in graph.nodes:
            if node not in reachable:
                bad.append(f"{node.name}: unreachable from entry over control edges")

    bad.extend(misplaced_defs)
    if n_defs != len(graph.defs):
        bad.append("definition table size disagrees with per-node definitions")

    if bad:
        raise PFGInvariantError(bad)
