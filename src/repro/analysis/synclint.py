"""Static synchronization diagnostics ("sync lint").

The §6 equations inherit PCF's correctness assumption: "it must be
possible to execute each post before its corresponding wait for a parallel
program to be deadlock free and correct" — and the paper's own Figure 3
violates it (the event is never cleared inside the loop, so iteration
``k+1``'s wait can be released by iteration ``k``'s stale posting).  This
module reports the violations statically:

``WAIT_WITHOUT_POST``
    a wait on an event that no block posts — every execution reaching it
    deadlocks;

``WAIT_ONLY_ORDERED_AFTER``
    every post of the event is *ordered after* the wait over forward
    control/sync paths (the wait can never be released in its construct
    instance) — deadlock by ordering;

``STALE_EVENT``
    a wait that executes repeatedly (it lies inside a loop) on an event
    that is posted somewhere but never cleared on any path around that
    loop — the Figure 3 bug: a posting can leak across iterations and
    release the wait early, invalidating the §6 Preserved reasoning;

``POST_WITHOUT_WAIT``
    informational: a posted event nobody waits on.

These are conservative *warnings* in the paper's spirit (its analysis
flags "potential anomalies"); programs flagged STALE_EVENT are exactly
those on which the dynamic oracle can exhibit executions outside the
static sets (see ``tests/regression/test_fig3_stale_event.py``).

The checks read reachability masks and natural loops off the graph's
:class:`~repro.pfg.graph.GraphIndex`, so linting a graph twice is cheap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode


class SyncIssueKind(enum.Enum):
    WAIT_WITHOUT_POST = "wait-without-post"
    WAIT_ONLY_ORDERED_AFTER = "wait-only-ordered-after"
    STALE_EVENT = "stale-event"
    POST_WITHOUT_WAIT = "post-without-wait"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SyncIssue:
    kind: SyncIssueKind
    event: str
    node: Optional[PFGNode] = None

    def format(self) -> str:
        where = f" at block ({self.node.name})" if self.node is not None else ""
        detail = {
            SyncIssueKind.WAIT_WITHOUT_POST: "wait on event that is never posted (deadlock)",
            SyncIssueKind.WAIT_ONLY_ORDERED_AFTER: (
                "every post of the event is ordered after the wait (deadlock)"
            ),
            SyncIssueKind.STALE_EVENT: (
                "wait inside a loop on an event that is never cleared in the "
                "loop — a stale posting from a previous iteration can release "
                "the wait early (the paper's Figure 3 bug)"
            ),
            SyncIssueKind.POST_WITHOUT_WAIT: "event is posted but never waited on",
        }[self.kind]
        return f"{self.kind} '{self.event}'{where}: {detail}"


def lint_synchronization(graph: ParallelFlowGraph) -> List[SyncIssue]:
    """Run all synchronization checks on ``graph``."""
    issues: List[SyncIssue] = []
    events = set(graph.posts_of_event) | set(graph.waits_of_event)
    if not events:
        return issues  # nothing to check: leave the graph index unbuilt
    index = graph.index()

    for event in sorted(events):
        posts = graph.posts_of_event.get(event, [])
        waits = graph.waits_of_event.get(event, [])

        if posts and not waits:
            issues.append(SyncIssue(SyncIssueKind.POST_WITHOUT_WAIT, event))
        for wait in waits:
            if not posts:
                issues.append(SyncIssue(SyncIssueKind.WAIT_WITHOUT_POST, event, wait))
                continue
            # Deadlock by ordering: a post can release the wait only if it
            # is NOT strictly downstream of the wait (over forward
            # control+sync edges — sync edges only add orderings).  A post
            # at the end of the wait's own block is downstream of its wait
            # by extended-basic-block construction.
            downstream = index.sync_reach[wait.id]
            if wait.post_event != event:
                downstream &= ~(1 << wait.id)
            if all(downstream >> p.id & 1 for p in posts):
                issues.append(
                    SyncIssue(SyncIssueKind.WAIT_ONLY_ORDERED_AFTER, event, wait)
                )
                continue
            # Stale event: the wait re-executes (some loop contains it) and
            # no clear of the event exists inside any such loop.
            clears = graph.clears_of_event.get(event, [])
            for _header, _latch, body in index.loops:
                if wait in body and not any(c in body for c in clears):
                    issues.append(SyncIssue(SyncIssueKind.STALE_EVENT, event, wait))
                    break
    return issues


def is_synchronization_correct(graph: ParallelFlowGraph) -> bool:
    """True iff no deadlock- or staleness-class issue is reported (the
    assumption under which the §6 results are dynamically exact)."""
    blocking = {
        SyncIssueKind.WAIT_WITHOUT_POST,
        SyncIssueKind.WAIT_ONLY_ORDERED_AFTER,
        SyncIssueKind.STALE_EVENT,
    }
    return not any(issue.kind in blocking for issue in lint_synchronization(graph))
