"""Reference graph facts: the per-module walkers the ``GraphIndex`` replaced.

Each function is the computation that lived in its module before the
control-flow facts moved into one index per PFG: the DFS reverse
postorder and back edges of ``ParallelFlowGraph``, one DFS per query for
mutual exclusion, one natural-loop walk per back edge, MustDone with the
back-edge set copied per node, Preserved over those walkers, and sync
lint with its own forward-reachability walk and per-wait loop and clear
scans.  Nothing here reads ``graph.index()``, ``graph.back_edges()`` or
``graph.reverse_postorder()``, so the oracle tests compare two
independent computations.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.synclint import SyncIssue, SyncIssueKind
from repro.lang import ast
from repro.pfg.concurrency import concurrent
from repro.pfg.graph import ParallelFlowGraph
from repro.pfg.node import PFGNode

Edge = Tuple[PFGNode, PFGNode]


def reference_dfs(graph: ParallelFlowGraph) -> Tuple[List[PFGNode], Set[Edge]]:
    """(reverse postorder with unreachable nodes last in id order, back edges)."""
    postorder: List[PFGNode] = []
    back: Set[Edge] = set()
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[PFGNode, int] = {n: WHITE for n in graph.nodes}
    stack: List[Tuple[PFGNode, int]] = [(graph.entry, 0)]
    color[graph.entry] = GREY
    while stack:
        node, i = stack.pop()
        succs = graph.control_succs(node)
        if i < len(succs):
            stack.append((node, i + 1))
            nxt = succs[i]
            if color[nxt] == WHITE:
                color[nxt] = GREY
                stack.append((nxt, 0))
            elif color[nxt] == GREY:
                back.add((node, nxt))
        else:
            color[node] = BLACK
            postorder.append(node)
    rpo = list(reversed(postorder))
    seen = set(rpo)
    rpo.extend(n for n in graph.nodes if n not in seen)
    return rpo, back


def reference_forward_control_preds(graph, node, back) -> List[PFGNode]:
    return [p for p in graph.control_preds(node) if (p, node) not in back]


def reference_forward_reaches(graph, back, src: PFGNode, dst: PFGNode) -> bool:
    """Reachability over forward (non-back) control edges."""
    seen = {src}
    stack = [src]
    while stack:
        node = stack.pop()
        if node is dst:
            return True
        for succ in graph.control_succs(node):
            if (node, succ) in back or succ in seen:
                continue
            seen.add(succ)
            stack.append(succ)
    return False


def reference_mutually_exclusive(graph, back, a: PFGNode, b: PFGNode) -> bool:
    if a is b or concurrent(a, b):
        return False
    reaches = reference_forward_reaches
    return not reaches(graph, back, a, b) and not reaches(graph, back, b, a)


def reference_forward_reachable(graph, back, sources) -> Set[PFGNode]:
    """Nodes reachable from ``sources`` over forward control + sync edges."""
    seen = set(sources)
    stack = list(sources)
    while stack:
        node = stack.pop()
        for succ, _kind in graph.out_edges(node):
            if (node, succ) in back or succ in seen:
                continue
            seen.add(succ)
            stack.append(succ)
    return seen


def reference_loop_body(graph, latch: PFGNode, header: PFGNode) -> FrozenSet[PFGNode]:
    body: Set[PFGNode] = {header, latch}
    stack = [latch]
    while stack:
        node = stack.pop()
        for p in graph.control_preds(node):
            if p not in body:
                body.add(p)
                stack.append(p)
    return frozenset(body)


def reference_find_loops(graph, back) -> List[Tuple[PFGNode, PFGNode, FrozenSet[PFGNode]]]:
    """(header, latch, body) per back edge, sorted by header id, latch id."""
    return [
        (header, latch, reference_loop_body(graph, latch, header))
        for latch, header in sorted(back, key=lambda e: (e[1].id, e[0].id))
    ]


def reference_must_done(graph) -> Dict[PFGNode, FrozenSet[PFGNode]]:
    order, back = reference_dfs(graph)
    must: Dict[PFGNode, FrozenSet[PFGNode]] = {n: frozenset() for n in graph.nodes}
    changed = True
    while changed:
        changed = False
        for node in order:
            seq_preds = [p for p in graph.seq_preds(node) if (p, node) not in back]
            par_preds = graph.par_preds(node)
            acc: Optional[Set[PFGNode]] = None
            if node.is_join:
                for p in seq_preds:
                    through = set(must[p]) | {p}
                    acc = through if acc is None else (acc & through)
                current: Set[PFGNode] = acc if acc is not None else set()
                for p in par_preds:
                    current |= set(must[p]) | {p}
            else:
                for p in seq_preds + par_preds:
                    through = set(must[p]) | {p}
                    acc = through if acc is None else (acc & through)
                current = acc if acc is not None else set()
            new = frozenset(current)
            if new != must[node]:
                must[node] = new
                changed = True
    return must


def reference_preserved(
    graph, stop_after: Optional[int] = None
) -> Tuple[Dict[PFGNode, FrozenSet[PFGNode]], int]:
    """(Preserved sets, passes) of the §6 approximation; with
    ``stop_after``, the partial sets after that many passes."""
    order, back = reference_dfs(graph)
    preserved: Dict[PFGNode, FrozenSet[PFGNode]] = {n: frozenset() for n in graph.nodes}
    sole_releaser: Dict[PFGNode, List[PFGNode]] = {}
    posts_for_wait: Dict[PFGNode, List[PFGNode]] = {}
    for wait in graph.waits:
        posts = graph.posts_of_event.get(wait.wait_event, [])
        posts_for_wait[wait] = posts
        sole_releaser[wait] = [
            p
            for p in posts
            if all(q is p or reference_mutually_exclusive(graph, back, p, q) for q in posts)
        ]
    passes = 0
    changed = True
    while changed and passes != stop_after:
        passes += 1
        changed = False
        for node in order:
            acc = set(preserved[node])
            for p in reference_forward_control_preds(graph, node, back):
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
            if node.pardo_ids:
                shared = set(node.pardo_ids)
                acc = {m for m in acc if not (shared & set(m.pardo_ids))}
            new = frozenset(acc)
            if new != preserved[node]:
                preserved[node] = new
                changed = True
    return preserved, passes


def _clears_of_event(graph, event: str) -> List[PFGNode]:
    out = []
    for node in graph.nodes:
        for stmt in node.stmts:
            if isinstance(stmt, ast.Clear) and stmt.event == event:
                out.append(node)
                break
    return out


def reference_lint(graph) -> List[SyncIssue]:
    _order, back = reference_dfs(graph)
    issues: List[SyncIssue] = []
    events = set(graph.posts_of_event) | set(graph.waits_of_event)
    for event in sorted(events):
        posts = graph.posts_of_event.get(event, [])
        waits = graph.waits_of_event.get(event, [])
        if posts and not waits:
            issues.append(SyncIssue(SyncIssueKind.POST_WITHOUT_WAIT, event))
        for wait in waits:
            if not posts:
                issues.append(SyncIssue(SyncIssueKind.WAIT_WITHOUT_POST, event, wait))
                continue
            downstream = reference_forward_reachable(graph, back, [wait])
            if wait.post_event != event:
                downstream = downstream - {wait}
            if all(p in downstream for p in posts):
                issues.append(SyncIssue(SyncIssueKind.WAIT_ONLY_ORDERED_AFTER, event, wait))
                continue
            clears = _clears_of_event(graph, event)
            for latch, header in back:
                body = reference_loop_body(graph, latch, header)
                if wait in body and not any(c in body for c in clears):
                    issues.append(SyncIssue(SyncIssueKind.STALE_EVENT, event, wait))
                    break
    return issues
