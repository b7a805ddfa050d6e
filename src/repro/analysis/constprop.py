"""Constant propagation over the parallel reaching-definitions result.

The paper's §1 motivation: with the parallel equations, "dataflow
information would show that the variable 'k' has the value 5 at the end of
the parallel construct during each iteration" of Figure 1(b) — the
sequential equations cannot conclude this because the branch analogue is
conditional.

Classic conditional-constant lattice per definition::

    UNDEF (⊥)  —  not yet evaluated (optimistic start)
    const c    —  the definition always produces c
    VARYING(⊤) —  more than one value possible

``value(d)`` is the abstract evaluation of ``d``'s right-hand side, where a
variable read is the meet over the definitions reaching that use (an
uninitialized / free-variable read is ``VARYING`` — an unknown input).
Monotone, so a worklist over the ud-chains converges; seeded FIFO in
document order it evaluates each definition once on acyclic programs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Union

from ..ir.defs import Definition, Use
from ..lang import ast
from ..obs import get_metrics
from ..reachdefs.result import NodeRef, ReachingDefsResult
from .udchains import UDChains

Value = Union[int, bool]


class _Top:
    def __repr__(self) -> str:
        return "VARYING"


class _Bottom:
    def __repr__(self) -> str:
        return "UNDEF"


VARYING = _Top()
UNDEF = _Bottom()
Lattice = Union[Value, _Top, _Bottom]


def _lattice_eq(a: Lattice, b: Lattice) -> bool:
    if a is UNDEF or a is VARYING or b is UNDEF or b is VARYING:
        return a is b
    return type(a) is type(b) and a == b


def meet(a: Lattice, b: Lattice) -> Lattice:
    if a is UNDEF:
        return b
    if b is UNDEF:
        return a
    if a is VARYING or b is VARYING:
        return VARYING
    return a if (type(a) is type(b) and a == b) else VARYING


def _apply_binop(op: str, left: Value, right: Value) -> Lattice:
    """``ast.apply_binop``, except that division or modulo by zero, which
    the interpreter totalizes to 0, is no constant."""
    if op in ("/", "%") and right == 0:
        return VARYING
    try:
        return ast.apply_binop(op, left, right)  # type: ignore[return-value]
    except TypeError:  # pragma: no cover - mixed bool/int corner
        return VARYING


def _eval_unary(node: ast.UnaryOp, inner: Lattice) -> Lattice:
    if inner is UNDEF or inner is VARYING:
        return inner
    return (not inner) if node.op == "not" else -inner  # type: ignore[operator]


def _eval_binary(node: ast.BinOp, left: Lattice, right: Lattice) -> Lattice:
    if left is UNDEF or right is UNDEF:
        return UNDEF
    if left is VARYING or right is VARYING:
        return VARYING
    return _apply_binop(node.op, left, right)  # type: ignore[arg-type]


@dataclass
class ConstantPropagation:
    """Fixpoint constant values per definition, with point queries."""

    result: ReachingDefsResult
    values: Dict[Definition, Lattice] = field(default_factory=dict)

    # -- solving ------------------------------------------------------------

    @classmethod
    def run(
        cls, result: ReachingDefsResult, chains: Optional[UDChains] = None
    ) -> "ConstantPropagation":
        if chains is None:
            chains = UDChains.from_result(result)
        self = cls(result=result)
        values = self.values = {d: UNDEF for d in result.graph.defs}
        # def -> (variable -> definitions reaching its read in the rhs), and
        # def -> defs whose rhs may read it (dependents for the worklist).
        reads: Dict[Definition, Dict[str, FrozenSet[Definition]]] = {}
        dependents: Dict[Definition, List[Definition]] = {d: [] for d in values}
        for node in result.graph.nodes:  # in definition order, as ``values``
            for (ordinal, _), e in zip(node.assignments(), node.defs):
                reads[e] = {
                    var: chains.defs_for(Use(var=var, site=node.name, ordinal=ordinal))
                    for var in node.reads[ordinal]
                }
                for defs in reads[e].values():
                    for d in defs:
                        dependents[d].append(e)
        # FIFO in document order: on an acyclic program every definition
        # is evaluated after all definitions reaching it, so exactly once.
        work = deque(values)
        queued = set(values)
        evals = 0
        while work:
            d = work.popleft()
            queued.discard(d)
            evals += 1
            # Evaluation is monotone in its inputs and inputs only ascend
            # UNDEF → const → VARYING, so any fair order reaches the same
            # least fixpoint.
            new = self._eval_expr(d.stmt.expr, reads[d])
            if not _lattice_eq(new, values[d]):
                values[d] = new
                for e in dependents[d]:
                    if e not in queued:
                        queued.add(e)
                        work.append(e)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("client.constprop.evals", evals)
            metrics.inc("client.constprop.defs", len(values))
        return self

    def _eval_expr(self, expr: ast.Expr, reads: Dict[str, FrozenSet[Definition]]) -> Lattice:
        """Abstract value of ``expr``, folded bottom-up."""
        return expr.fold(lambda atom: self._eval_atom(atom, reads), _eval_unary, _eval_binary)

    def _eval_atom(
        self, expr: ast.Expr, reads: Dict[str, FrozenSet[Definition]]
    ) -> Lattice:
        if isinstance(expr, (ast.IntLit, ast.BoolLit)):
            return expr.value
        if isinstance(expr, ast.Var):
            reaching = reads[expr.name]
            if not reaching:
                return VARYING  # free variable: unknown input
            acc: Lattice = UNDEF
            for d in reaching:
                acc = meet(acc, self.values[d])
                if acc is VARYING:
                    break
            return acc
        raise TypeError(f"cannot evaluate {type(expr).__name__}")  # pragma: no cover

    # -- queries -----------------------------------------------------------------

    def value_of(self, d: Definition) -> Lattice:
        return self.values[d]

    def value_at(self, ref: NodeRef, var: str) -> Lattice:
        """Abstract value of ``var`` at the *start* of a block: the meet
        over all definitions reaching it (UNDEF if none reach)."""
        acc: Lattice = UNDEF
        for d in self.result.reaching(ref, var):
            acc = meet(acc, self.values[d])
        return acc

    def constant_at(self, ref: NodeRef, var: str) -> Optional[Value]:
        """``var``'s value at block start if provably constant, else None."""
        v = self.value_at(ref, var)
        return None if isinstance(v, (_Top, _Bottom)) else v

    def constant_defs(self) -> Dict[Definition, Value]:
        """All definitions with a proven constant value."""
        return {
            d: v for d, v in self.values.items() if not isinstance(v, (_Top, _Bottom))
        }


def propagate_constants(
    result: ReachingDefsResult, chains: Optional[UDChains] = None
) -> ConstantPropagation:
    """Run constant propagation on an analysis result (``chains``: its
    ud-chains, when the caller already has them)."""
    return ConstantPropagation.run(result, chains)
