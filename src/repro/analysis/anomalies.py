"""Data-anomaly (race) detection from reaching-definitions sets.

The paper uses its sets as an anomaly detector (§3, §5, §6):

* "at a join node, multiple values for a variable reaching that node
  indicates a potential anomaly in the Parallel Sections construct";
* "multiple copies of a variable may potentially reach a wait statement
  ... the presence of multiple values at such wait statements indicates
  potential anomalies" (with the caveat that conditionally executed posts
  make this inexact);
* Figure 8's discussion separates the cases: ``b3``/``b5`` reaching the
  join from *distinct parallel branches* is "an actual anomaly", whereas
  ``c1``/``c7`` (a conditional definition) is only the conservative
  multiple-values warning.

We report both severities:

``RACE``
    ≥ 2 definitions of one variable reach a join/wait, and at least two of
    them come from nodes that may execute concurrently — genuinely
    unordered values meet.

``MULTIPLE``
    ≥ 2 definitions reach a join/wait but all are sequentially ordered or
    mutually exclusive (e.g. a conditional definition) — the conservative
    warning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from ..ir.defs import Definition
from ..pfg.node import PFGNode
from ..reachdefs.result import ReachingDefsResult


class AnomalyKind(enum.Enum):
    RACE = "race"
    MULTIPLE = "multiple-values"
    CROSS_ITERATION = "cross-iteration race"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Anomaly:
    """One potential anomaly report."""

    kind: AnomalyKind
    node: PFGNode
    var: str
    defs: FrozenSet[Definition]

    def format(self) -> str:
        if self.kind is AnomalyKind.CROSS_ITERATION:
            where = "parallel-do merge"
        elif self.node.is_wait:
            where = "wait"
        elif self.node.is_join:
            where = "join"
        else:
            where = "block"
        names = ", ".join(sorted(d.name for d in self.defs))
        return f"{self.kind} of {self.var!r} at {where} ({self.node.name}): {{{names}}}"


def _classify(result: ReachingDefsResult, node: PFGNode) -> List[Anomaly]:
    found: List[Anomaly] = []
    by_var: Dict[str, List[Definition]] = {}
    for d in result.In(node):
        by_var.setdefault(d.var, []).append(d)
    concurrent_defs, def_node = result.info.concurrent_defs, result.info.def_node
    for var, defs in sorted(by_var.items()):
        if len(defs) < 2:
            continue
        # racy iff some reaching d may run alongside another reaching def
        reaching = 0
        for d in defs:
            reaching |= 1 << d.index
        racy = any(concurrent_defs(def_node[d]) & (reaching ^ 1 << d.index) for d in defs)
        kind = AnomalyKind.RACE if racy else AnomalyKind.MULTIPLE
        found.append(Anomaly(kind=kind, node=node, var=var, defs=frozenset(defs)))
    return found


def find_anomalies(
    result: ReachingDefsResult, include_multiple: bool = True
) -> List[Anomaly]:
    """Scan every join and wait node for potential anomalies, plus every
    ``Parallel Do`` merge for cross-iteration write conflicts.

    ``include_multiple=False`` keeps only the race-severity reports (the
    "actual anomaly" severity of the paper's Figure 8 discussion).
    """
    out: List[Anomaly] = []
    for node in result.graph.nodes:
        if not (node.is_join or node.is_wait):
            continue
        for anomaly in _classify(result, node):
            if anomaly.kind is AnomalyKind.RACE or include_multiple:
                out.append(anomaly)
    out.extend(_pardo_races(result))
    return out


def _pardo_races(result: ReachingDefsResult) -> List[Anomaly]:
    """A variable written inside a ``Parallel Do`` body conflicts with the
    same write in other iterations: at the merge, any of the iterations'
    copies may win (unless only one iteration ran) — a potential race
    even with a single static definition."""
    out: List[Anomaly] = []
    for pardo in result.graph.pardos:
        reaching_merge = result.In(pardo.merge)
        by_var: Dict[str, List[Definition]] = {}
        for d in reaching_merge:
            node = result.info.def_node[d]
            if pardo.construct_id in node.pardo_ids:
                by_var.setdefault(d.var, []).append(d)
        for var, defs in sorted(by_var.items()):
            out.append(
                Anomaly(
                    kind=AnomalyKind.CROSS_ITERATION,
                    node=pardo.merge,
                    var=var,
                    defs=frozenset(defs),
                )
            )
    return out


def races(result: ReachingDefsResult) -> List[Anomaly]:
    """Only the race-severity reports (concurrent definitions meeting, or
    cross-iteration writes in a parallel do)."""
    return find_anomalies(result, include_multiple=False)


def anomaly_summary(result: ReachingDefsResult) -> Tuple[int, int]:
    """(race count, multiple-values count) — the precision metric used by
    the Preserved-set ablation benchmark."""
    found = find_anomalies(result)
    n_race = sum(
        1 for a in found if a.kind in (AnomalyKind.RACE, AnomalyKind.CROSS_ITERATION)
    )
    return n_race, len(found) - n_race
