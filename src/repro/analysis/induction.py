"""Basic induction-variable detection across parallel constructs.

The paper's opening example (§1, Figure 1): ``j`` is **not** an induction
variable in the sequential program — the conditional increment may not run
every iteration — but **is** one in the parallel program, "since both
branches of the Parallel Sections statement always execute for all
iterations of the loop, but this could not be automatically detected
without adequate dataflow information".

The reaching-definitions result encodes exactly the needed fact: a
variable ``v`` is a *basic induction variable* of a loop iff

1. the loop body contains at least one definition of ``v``, every one of
   which has the shape ``v = v ± c`` (``c`` an integer literal), and
2. every definition of ``v`` flowing around the back edge (i.e. in
   ``Out(latch)``) is one of those increments — the parallel equations'
   ``ACCKill`` machinery is what removes the loop-entry definition here
   when an always-executing section redefines ``v``, and what keeps it
   when the redefinition is conditional.

Definitions inside a *nested* loop are rejected (they may run ≠ 1 times
per outer iteration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..ir.defs import Definition
from ..lang import ast
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from ..reachdefs.result import ReachingDefsResult


@dataclass(frozen=True)
class LoopInfo:
    """One natural loop: ``latch -> header`` back edge plus its body."""

    header: PFGNode
    latch: PFGNode
    body: FrozenSet[PFGNode]

    def __contains__(self, node: PFGNode) -> bool:
        return node in self.body


@dataclass(frozen=True)
class InductionVariable:
    """A detected basic induction variable of one loop."""

    var: str
    loop: LoopInfo
    increments: Tuple[Definition, ...]
    steps: Tuple[int, ...]

    def format(self) -> str:
        incs = ", ".join(f"{d.name} (step {s:+d})" for d, s in zip(self.increments, self.steps))
        return f"{self.var} is a basic induction variable of loop@{self.loop.header.name}: {incs}"


def find_loops(graph: ParallelFlowGraph) -> List[LoopInfo]:
    """All natural loops, one per control back edge, sorted by header id
    then latch id.  A graph with no retreating edge has no back edge,
    so no loop, and its graph index is not built."""
    if not graph.has_retreating_edge:
        return []
    return [
        LoopInfo(header=header, latch=latch, body=body)
        for header, latch, body in graph.index().loops
    ]


def _increment_step(stmt: ast.Assign) -> Optional[int]:
    """``v = v + c`` / ``v = c + v`` / ``v = v - c`` → ±c, else None."""
    expr = stmt.expr
    if not isinstance(expr, ast.BinOp) or expr.op not in ("+", "-"):
        return None
    left, right = expr.left, expr.right
    if (
        isinstance(left, ast.Var)
        and left.name == stmt.target
        and isinstance(right, ast.IntLit)
    ):
        return right.value if expr.op == "+" else -right.value
    if (
        expr.op == "+"
        and isinstance(right, ast.Var)
        and right.name == stmt.target
        and isinstance(left, ast.IntLit)
    ):
        return left.value
    return None


def find_induction_variables(result: ReachingDefsResult) -> List[InductionVariable]:
    """Detect basic induction variables in every loop of the analyzed
    program, using whichever equation system produced ``result`` (this is
    what makes the sequential/parallel Figure 1 contrast visible)."""
    graph = result.graph
    out: List[InductionVariable] = []
    loops = find_loops(graph)
    for loop in loops:
        inner_nodes = _nested_loop_nodes(loops, loop)
        body_defs: Dict[str, List[Definition]] = {}
        for node in loop.body:
            if node is loop.header:
                continue
            for d in node.defs:
                body_defs.setdefault(d.var, []).append(d)
        for var, defs in sorted(body_defs.items()):
            steps = []
            ok = True
            for d in defs:
                node = graph.node(d.site)
                step = _increment_step(d.stmt) if d.stmt is not None else None
                if step is None or node in inner_nodes:
                    ok = False
                    break
                steps.append(step)
            if not ok:
                continue
            # Every definition flowing around the back edge must be one of
            # the increments: the loop-entry value must not survive a full
            # iteration (otherwise some iteration may skip the increment).
            circulating = {d for d in result.Out(loop.latch) if d.var == var}
            if circulating and circulating <= set(defs):
                out.append(
                    InductionVariable(
                        var=var, loop=loop, increments=tuple(defs), steps=tuple(steps)
                    )
                )
    return out


def _nested_loop_nodes(loops: List[LoopInfo], outer: LoopInfo) -> FrozenSet[PFGNode]:
    nested = set()
    for other in loops:
        if other is outer:
            continue
        if other.header in outer.body and other.header is not outer.header:
            nested |= set(other.body)
    return frozenset(nested)
