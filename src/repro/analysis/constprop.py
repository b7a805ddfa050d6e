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

The lattice is kept as masks over definition indices: one of the
definitions still ``UNDEF`` and one per constant, keyed by ``(type,
value)`` so that ``True`` and ``1`` stay apart.  The meet over a read's
chain mask is then a few mask tests.  Evaluation is monotone, so the
rounds below reach the least fixpoint: each round visits the
definitions in index (document) order and re-evaluates one only if a
definition its right-hand side reads changed after its last evaluation.
Without loops or post/wait every definition a right-hand side reads has a
lower index, so the first round evaluates each definition once and no
later round evaluates any.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..ir.defs import Definition
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
    """Fixpoint constant values per definition, with point queries.

    ``values`` is by definition; ``_undef`` (definitions still ``UNDEF``)
    and ``_consts`` (``(type, value)`` → definitions with that constant)
    are the same lattice as masks, which the meets read."""

    result: ReachingDefsResult
    values: Dict[Definition, Lattice] = field(default_factory=dict)
    _by_index: List[Lattice] = field(default_factory=list, repr=False, compare=False)
    _undef: int = field(default=0, repr=False, compare=False)
    _consts: Dict[Tuple[type, Value], int] = field(default_factory=dict, repr=False, compare=False)

    # -- solving ------------------------------------------------------------

    @classmethod
    def run(
        cls, result: ReachingDefsResult, chains: Optional[UDChains] = None
    ) -> "ConstantPropagation":
        if chains is None:
            chains = UDChains.from_result(result)
        self = cls(result=result)
        defs = result.graph.defs
        vals = self._by_index = [UNDEF] * len(defs)
        self._undef = (1 << len(defs)) - 1
        consts = self._consts
        rhs, feeds = chains.rhs, chains.feeds
        evals = 0
        # Round 0 evaluates every definition.  A later round re-evaluates
        # ``d`` only if a feeder changed after d's last evaluation: in the
        # previous round at an index ≥ d's (d itself included), or earlier
        # in this round.
        prev = -1
        while prev:
            changed = 0
            for d in defs:
                i = d.index
                if prev != -1 and not (feeds[i] & ((prev >> i << i) | changed)):
                    continue
                evals += 1
                # Evaluation is monotone in its inputs and inputs only
                # ascend UNDEF → const → VARYING, so any fair order reaches
                # the same least fixpoint.
                new = self._eval_expr(d.stmt.expr, rhs[i])
                old = vals[i]
                if _lattice_eq(new, old):
                    continue
                bit = 1 << i
                if old is UNDEF:
                    self._undef ^= bit
                else:
                    consts[(type(old), old)] ^= bit
                if new is not VARYING:
                    key = (type(new), new)
                    consts[key] = consts.get(key, 0) | bit
                vals[i] = new
                changed |= bit
            prev = changed
        self.values = dict(zip(defs, vals))
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("client.constprop.evals", evals)
            metrics.inc("client.constprop.defs", len(vals))
        return self

    def _meet_mask(self, mask: int) -> Lattice:
        """The meet of the values of the definitions in ``mask`` (``UNDEF``
        when none is known yet)."""
        known = mask & ~self._undef
        if not known:
            return UNDEF
        value = self._by_index[known.bit_length() - 1]
        if value is VARYING or known & ~self._consts[(type(value), value)]:
            return VARYING
        return value

    def _eval_expr(self, expr: ast.Expr, reads: Dict[str, int]) -> Lattice:
        """Abstract value of ``expr``, folded bottom-up; ``reads`` maps
        each variable it reads to that read's chain mask."""
        return expr.fold(lambda atom: self._eval_atom(atom, reads), _eval_unary, _eval_binary)

    def _eval_atom(self, expr: ast.Expr, reads: Dict[str, int]) -> Lattice:
        if isinstance(expr, (ast.IntLit, ast.BoolLit)):
            return expr.value
        if isinstance(expr, ast.Var):
            mask = reads[expr.name]
            if not mask:
                return VARYING  # free variable: unknown input
            return self._meet_mask(mask)
        raise TypeError(f"cannot evaluate {type(expr).__name__}")  # pragma: no cover

    # -- queries -----------------------------------------------------------------

    def value_of(self, d: Definition) -> Lattice:
        return self.values[d]

    def value_at(self, ref: NodeRef, var: str) -> Lattice:
        """Abstract value of ``var`` at the *start* of a block: the meet
        over all definitions reaching it (UNDEF if none reach)."""
        return self._meet_mask(self.result.reaching_mask(ref, var))

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
