"""Common-subexpression elimination via value-labelled expressions.

Two assignment sites compute the *same value* when their right-hand sides
are structurally equal **after** replacing every variable read by the set
of definitions reaching that read (its ud-chain): if the reaching-def sets
match, the operands provably hold the same values, whatever path executed.
The earlier computation can then serve the later one, provided the earlier
*target* still holds it — i.e. the earlier definition reaches the later
site.

This is the paper's "common subexpression elimination" client (§1); it
works across ``Parallel Sections`` boundaries precisely because the
parallel equations produce correct reaching-def sets there.  Only
non-trivial right-hand sides (at least one operator) are considered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.defs import Definition, Use
from ..lang import ast
from ..reachdefs.result import ReachingDefsResult
from .udchains import UDChains

#: A structural expression key with ud-chains in place of variable names.
ValueKey = Tuple


@dataclass(frozen=True)
class CommonSubexpression:
    """``later`` recomputes the value already available in ``earlier``'s
    target; ``later``'s rhs can become a copy of ``earlier.var``."""

    earlier: Definition
    later: Definition
    expr: str

    def format(self) -> str:
        return (
            f"{self.later.name} recomputes {self.expr} — reuse {self.earlier.name} "
            f"({self.later.var} = {self.earlier.var})"
        )


def _value_key(chains: UDChains, expr: ast.Expr, site: str, ordinal: int) -> ValueKey:
    """``expr`` in postorder, one ``(tag, payload)`` item per node: class
    and operator or literal, or the mask of the definitions reaching a
    variable.  Every tag has a fixed arity, so the flat tuple is as exact
    as the tree, and a long sum hashes and compares without recursion."""
    key = []
    for node in expr.postorder():
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            key.append((type(node), node.op))
        elif not isinstance(node, ast.Var):
            key.append((type(node), node.value))
        else:
            reaching = chains.mask_of(Use(var=node.name, site=site, ordinal=ordinal))
            # Free variables: value is an unknowable input; two reads of the
            # same free variable are assumed to agree (the interpreter
            # resolves each free variable once per run).
            key.append(("defs", reaching) if reaching else ("free", node.name))
    return tuple(key)


def find_common_subexpressions(
    result: ReachingDefsResult, chains: Optional[UDChains] = None
) -> List[CommonSubexpression]:
    """All (earlier, later) pairs where the later definition provably
    recomputes the earlier one's value (``chains``: ``result``'s
    ud-chains, when the caller already has them)."""
    if chains is None:
        chains = UDChains.from_result(result)
    graph, concurrent_defs = result.graph, result.info.concurrent_defs
    by_key: Dict[ValueKey, List[Definition]] = {}
    for node in graph.document_order():
        for d in node.defs:
            assert d.stmt is not None
            if isinstance(d.stmt.expr, (ast.IntLit, ast.BoolLit, ast.Var)):
                continue  # trivial rhs — copy/constant propagation territory
            key = _value_key(chains, d.stmt.expr, node.name, chains.ordinals[d])
            by_key.setdefault(key, []).append(d)

    out: List[CommonSubexpression] = []
    for key, candidates in by_key.items():
        if len(candidates) < 2:
            continue
        for i, earlier in enumerate(candidates):
            for later in candidates[i + 1 :]:
                if earlier is later:
                    continue
                # The earlier target must still hold the value at the later
                # site, and the two computations must not race.
                holds = chains.mask_of(
                    Use(var=earlier.var, site=later.site, ordinal=chains.ordinals[later])
                ) == 1 << earlier.index
                if not holds:
                    continue
                if concurrent_defs(graph.node(earlier.site)) >> later.index & 1:
                    continue
                assert later.stmt is not None
                out.append(
                    CommonSubexpression(earlier=earlier, later=later, expr=str(later.stmt.expr))
                )
    return out
