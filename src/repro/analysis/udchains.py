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
from typing import Dict, FrozenSet, List, Tuple

from ..ir.defs import Definition, Use
from ..obs import get_metrics
from ..reachdefs.result import ReachingDefsResult


@dataclass
class UDChains:
    """ud- and du-chains for one analysis result."""

    result: ReachingDefsResult
    ud: Dict[Use, FrozenSet[Definition]]
    du: Dict[Definition, Tuple[Use, ...]]

    @classmethod
    def from_result(cls, result: ReachingDefsResult) -> "UDChains":
        ud = result.ud_chains()
        get_metrics().inc("client.udchains.uses", len(ud))
        return cls(result=result, ud=ud, du=result.du_chains(ud))

    # -- queries -----------------------------------------------------------

    def defs_for(self, use: Use) -> FrozenSet[Definition]:
        return self.ud[use]

    def uses_of(self, d: Definition) -> Tuple[Use, ...]:
        return self.du[d]

    def reaching_use(self, use: Use) -> FrozenSet[Definition]:
        """Definitions reaching ``use``, which may be a position no
        statement reads (answered by the result, not the chains)."""
        defs = self.ud.get(use)
        return defs if defs is not None else self.result.reaching_use(use)

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
        return [(u, ds) for u, ds in self.ud.items() if len(ds) > 1]

    def singleton_uses(self) -> List[Tuple[Use, Definition]]:
        """Uses with exactly one reaching definition (safe to specialize)."""
        return [(u, next(iter(ds))) for u, ds in self.ud.items() if len(ds) == 1]

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
