"""Copy propagation over (parallel) ud-chains.

A use of ``v`` can be replaced by ``w`` when:

1. exactly one definition ``d: v = w`` reaches the use (ud-chain is the
   singleton ``{d}`` and ``d``'s right-hand side is the bare variable
   ``w``), and
2. the definitions of ``w`` visible at the use are exactly those visible
   where ``d`` was executed (so ``w`` still holds the same value), and
3. no definition of ``w`` may execute *concurrently* with either point —
   under the copy-in/copy-out model a concurrent write does not invalidate
   the local copy, but being conservative here keeps the transformation
   valid under every memory model the standard allows (paper §3).

All three checks read off the reaching-definitions result; this is one of
the scalar optimizations "across parallel constructs" the paper is built
to enable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..ir.defs import Definition, Use
from ..lang import ast
from ..reachdefs.result import ReachingDefsResult
from .udchains import UDChains


@dataclass(frozen=True)
class CopyPropagation:
    """One legal replacement: at ``use``, read ``source`` instead of
    ``use.var`` (justified by copy definition ``copy_def``)."""

    use: Use
    copy_def: Definition
    source: str

    def format(self) -> str:
        return f"at {self.use.name}: replace {self.use.var} by {self.source} (via {self.copy_def.name})"


def find_copy_propagations(
    result: ReachingDefsResult, chains: Optional[UDChains] = None
) -> List[CopyPropagation]:
    """All uses where copy propagation is provably safe (``chains``:
    ``result``'s ud-chains, when the caller already has them)."""
    if chains is None:
        chains = UDChains.from_result(result)
    graph, info = result.graph, result.info
    defs, concurrent_defs = graph.defs, info.concurrent_defs
    out: List[CopyPropagation] = []
    for use, mask in chains.masks.items():
        if not mask or mask & (mask - 1):
            continue  # not exactly one reaching definition
        d = defs[mask.bit_length() - 1]
        if d.stmt is None or not isinstance(d.stmt.expr, ast.Var):
            continue
        source = d.stmt.expr.name
        # w's visible definitions at the copy and at the use must agree.
        at_def = chains.mask_of(Use(var=source, site=d.site, ordinal=chains.ordinals[d]))
        at_use = chains.mask_of(Use(var=source, site=use.site, ordinal=use.ordinal))
        if at_def != at_use or not at_def:
            continue
        # No definition of w concurrent with either end point.
        near = concurrent_defs(graph.node(d.site)) | concurrent_defs(graph.node(use.site))
        if near & info.var_defs[source]:
            continue
        out.append(CopyPropagation(use=use, copy_def=d, source=source))
    return out
