"""Use-definition chains — the paper's "ud-chaining problem" (§2.1).

Thin, report-friendly layer over
:meth:`repro.reachdefs.result.ReachingDefsResult.ud_chains`; every other
client in this package consumes chains through here.  :func:`repro.driver.optimize`
builds one :class:`UDChains` per report and hands it to every client; a
client called without one builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Tuple

from ..ir.defs import Definition, Use
from ..obs import get_metrics
from ..reachdefs.result import ReachingDefsResult


@dataclass
class UDChains:
    """ud- and du-chains for one analysis result.

    ``masks`` holds each use's chain as an int mask over definition
    indices, and ``rhs[d.index]`` maps each variable ``d``'s right-hand
    side reads to that read's chain mask; the clients propagate over
    these.  ``ud`` is the same chains as a read-only mapping that decodes
    a chain on its first read."""

    result: ReachingDefsResult
    ud: Mapping[Use, FrozenSet[Definition]]
    masks: Dict[Use, int]
    rhs: List[Dict[str, int]]

    @classmethod
    def from_result(cls, result: ReachingDefsResult) -> "UDChains":
        masks, rhs = result.chain_masks()
        get_metrics().inc("client.udchains.uses", len(masks))
        return cls(result=result, ud=result.ud_chains(masks), masks=masks, rhs=rhs)

    @cached_property
    def du(self) -> Dict[Definition, Tuple[Use, ...]]:
        """du-chains, the inverse of :attr:`ud`, built on first use from
        the chain masks."""
        return self.result.du_chains(self.ud)

    @cached_property
    def feeds(self) -> List[int]:
        """By definition index: the mask of every definition reaching a
        read of the right-hand side (the union of ``rhs``)."""
        out = []
        for reads in self.rhs:
            mask = 0
            for m in reads.values():
                mask |= m
            out.append(mask)
        return out

    # -- queries -----------------------------------------------------------

    def defs_for(self, use: Use) -> FrozenSet[Definition]:
        return self.ud[use]

    def uses_of(self, d: Definition) -> Tuple[Use, ...]:
        return self.du[d]

    def mask_of(self, use: Use) -> int:
        """:meth:`reaching_use` as a mask."""
        mask = self.masks.get(use)
        return mask if mask is not None else self.result.use_mask(use)

    def reaching_use(self, use: Use) -> FrozenSet[Definition]:
        """Definitions reaching ``use``, which may be a position no
        statement reads (answered by the result, not the chains)."""
        return self.ud[use] if use in self.masks else self.result.reaching_use(use)

    @cached_property
    def ordinals(self) -> Dict[Definition, int]:
        """Each definition's statement position within its block."""
        out: Dict[Definition, int] = {}
        for node in self.result.graph.nodes:
            # one definition per assignment, in statement order
            for (ordinal, _), d in zip(node.assignments(), node.defs):
                out[d] = ordinal
        return out

    def unused_defs(self) -> List[Definition]:
        """Definitions with an empty du-chain (candidates for dead code)."""
        return [d for d, uses in self.du.items() if not uses]

    def multi_def_uses(self) -> List[Tuple[Use, FrozenSet[Definition]]]:
        """Uses reached by more than one definition — where optimizations
        lose precision and potential anomalies hide."""
        return [(u, self.ud[u]) for u, m in self.masks.items() if m.bit_count() > 1]

    def singleton_uses(self) -> List[Tuple[Use, Definition]]:
        """Uses with exactly one reaching definition (safe to specialize)."""
        defs = self.result.graph.defs
        return [
            (u, defs[m.bit_length() - 1]) for u, m in self.masks.items() if m.bit_count() == 1
        ]

    # -- reporting -----------------------------------------------------------

    def format(self) -> str:
        lines = []
        for use in sorted(self.ud, key=lambda u: (u.site, u.ordinal, u.var)):
            defs = ", ".join(sorted(d.name for d in self.ud[use])) or "∅ (uninitialized read)"
            lines.append(f"{use.name:>16}  <-  {{{defs}}}")
        return "\n".join(lines)


def compute_ud_chains(result: ReachingDefsResult) -> UDChains:
    """Convenience constructor."""
    return UDChains.from_result(result)
