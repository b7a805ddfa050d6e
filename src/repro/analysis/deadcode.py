"""Dead-code elimination from du-chains.

Mark-and-sweep over definitions:

* **roots** — definitions whose value is observable: they reach the
  program's exit (the final values of variables are the program's output),
  or feed a branch condition (control dependence);
* **propagate** — a live definition keeps alive every definition reaching
  the uses in its right-hand side;
* everything unmarked is removable.

The parallel equations matter here exactly as the paper argues: a
definition killed by an always-executing sibling section does *not* reach
the exit, so it can be recognized as dead across the construct — the
sequential equations applied naively would keep it alive.

The client reports removable definitions (and can rewrite the AST); it
never removes ``post``/``wait`` or control structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set

from ..ir.defs import Definition, Use
from ..reachdefs.result import ReachingDefsResult
from .udchains import UDChains


@dataclass
class DeadCodeReport:
    """Live/dead partition of all definitions."""

    live: FrozenSet[Definition]
    dead: FrozenSet[Definition]
    roots: FrozenSet[Definition]

    def is_dead(self, d: Definition) -> bool:
        return d in self.dead

    def format(self) -> str:
        if not self.dead:
            return "no dead definitions"
        return "dead definitions: " + ", ".join(sorted(d.name for d in self.dead))


def find_dead_code(
    result: ReachingDefsResult,
    observable_at_exit: bool = True,
    chains: Optional[UDChains] = None,
) -> DeadCodeReport:
    """Compute the live/dead definition partition.

    ``observable_at_exit=False`` treats nothing as implicitly observable —
    only uses inside the program keep definitions alive (useful for
    library-style fragments where final values are irrelevant).
    ``chains`` are ``result``'s ud-chains, when the caller already has them.
    """
    if chains is None:
        chains = UDChains.from_result(result)
    graph = result.graph
    roots: Set[Definition] = set()
    if observable_at_exit and graph.exit is not None:
        roots |= set(result.In(graph.exit)) | set(result.Out(graph.exit))

    # Branch conditions are always observable (they steer control flow).
    for node in graph.nodes:
        if node.cond is not None:
            for var in node.cond.variables():
                use = Use(var=var, site=node.name, ordinal=len(node.stmts))
                roots |= chains.defs_for(use)

    live: Set[Definition] = set()
    work: List[Definition] = list(roots)
    while work:
        d = work.pop()
        if d in live:
            continue
        live.add(d)
        if d.stmt is None:
            continue
        ordinal = chains.ordinals[d]
        for var in d.stmt.expr.variables():
            use = Use(var=var, site=d.site, ordinal=ordinal)
            for feeder in chains.defs_for(use):
                if feeder not in live:
                    work.append(feeder)

    dead = frozenset(set(graph.defs) - live)
    return DeadCodeReport(live=frozenset(live), dead=dead, roots=frozenset(roots))
