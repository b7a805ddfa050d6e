"""Dead-code elimination from du-chains.

Mark-and-sweep over definition masks:

* **roots** — definitions whose value is observable: they reach the
  program's exit (the final values of variables are the program's output),
  or feed a branch condition (control dependence);
* **propagate** — a live definition keeps alive every definition reaching
  the uses in its right-hand side;
* everything unmarked is removable.

Both run on int masks over definition indices: the roots are one mask,
and each definition that turns live ORs its right-hand side's read masks
into the next frontier.

The parallel equations matter here exactly as the paper argues: a
definition killed by an always-executing sibling section does *not* reach
the exit, so it can be recognized as dead across the construct — the
sequential equations applied naively would keep it alive.

The client reports removable definitions (and can rewrite the AST); it
never removes ``post``/``wait`` or control structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from ..dataflow.bitset import bit_indices
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
    roots = 0
    if observable_at_exit and graph.exit is not None:
        roots = result.in_out_mask(graph.exit)

    # Branch conditions are always observable (they steer control flow).
    masks = chains.masks
    for node in graph.nodes:
        if node.cond is not None:
            ordinal = len(node.stmts)
            for var in node.reads[ordinal]:
                roots |= masks[Use(var, node.name, ordinal)]

    feeds = chains.feeds
    live = 0
    frontier = roots
    while frontier:
        live |= frontier
        reached = 0
        for i in bit_indices(frontier):
            reached |= feeds[i]
        frontier = reached & ~live

    everything = (1 << len(graph.defs)) - 1
    decode = result.decode
    return DeadCodeReport(
        live=decode(live), dead=decode(everything & ~live), roots=decode(roots)
    )
