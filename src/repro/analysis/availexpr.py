"""Available expressions across parallel constructs (forward, must).

The must-direction companion to reaching definitions: an expression ``e``
is *available* at a point if **every** path to it computes ``e`` after the
last assignment to any of ``e``'s operands.  Classic lattice: initialize
everything to the full universe (optimistic), entry to ∅, intersect at
merges, and shrink to the greatest fixpoint.

Parallel rules (conservative in the copy-in/copy-out model, §3):

* a parallel **join** intersects over the section exits like any merge,
  but additionally **kills** every expression with an operand assigned
  anywhere inside the construct by *more than one* section — the merged
  memory may mix operand copies from different sections, invalidating a
  value computed in either;
* a **wait** absorbs poster copies, so it kills every expression with an
  operand defined in any block that may run concurrently with the wait
  (the absorbed copy may carry that definition);
* an expression computed in a section is *not* killed by a sibling's
  assignments while the section runs (each thread computes on its own
  copies) — only the merge points above introduce cross-thread kills.

The client use is classical CSE: if ``e ∈ AvailIn(n)`` and ``n``
recomputes ``e``, some earlier computation can be reused.  This
complements :mod:`repro.analysis.cse` (which matches ud-chain value
identity); ``find_redundant_computations`` reports sites the must-
analysis certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..dataflow.framework import EquationSystem, SolveStats
from ..dataflow.solver import solve_round_robin
from ..lang import ast
from ..pfg.graph import ParallelFlowGraph
from ..pfg.node import PFGNode
from ..pfg.regions import compute_regions
from ..reachdefs.genkill import compute_genkill

#: Expressions compare and hash structurally, without recursion (see ``ast.Expr``).
Expr = ast.Expr


def interesting_expressions(graph: ParallelFlowGraph) -> List[Expr]:
    """The expression universe: every non-trivial right-hand side and
    branch condition (at least one operator, at least one variable)."""
    seen: Set[Expr] = set()
    out: List[Expr] = []
    for node in graph.nodes:
        candidates = [s.expr for _o, s in node.assignments()]
        if node.cond is not None:
            candidates.append(node.cond)
        for expr in candidates:
            if isinstance(expr, (ast.BinOp, ast.UnaryOp)) and expr.variables():
                if expr not in seen:
                    seen.add(expr)
                    out.append(expr)
    return out


def _node_gen_kill(node: PFGNode, universe: List[Expr]) -> Tuple[FrozenSet[Expr], FrozenSet[Expr]]:
    """(gen, kill) for one block: process statements in order; an
    assignment kills expressions over its target and generates the
    expressions it computes (if still valid at block end)."""
    available: Set[Expr] = set()
    killed: Set[Expr] = set()
    for _ordinal, stmt in node.assignments():
        if isinstance(stmt.expr, (ast.BinOp, ast.UnaryOp)) and stmt.expr.variables():
            available.add(stmt.expr)
        dead = {e for e in available if stmt.target in e.variables()}
        available -= dead
        killed |= {e for e in universe if stmt.target in e.variables()}
    if node.cond is not None and node.cond in universe:
        available.add(node.cond)
    return frozenset(available), frozenset(killed)


class AvailableExpressionsSystem(EquationSystem[PFGNode]):
    """Greatest-fixpoint must system (monotone *decreasing* from ⊤)."""

    def __init__(self, graph: ParallelFlowGraph):
        self.graph = graph
        self.universe = interesting_expressions(graph)
        self._top = frozenset(self.universe)
        self._gen: Dict[PFGNode, FrozenSet[Expr]] = {}
        self._kill: Dict[PFGNode, FrozenSet[Expr]] = {}
        #: cross-thread kills applied at block *entry* (the join/wait merge
        #: happens before the block's own statements run)
        self._entry_kill: Dict[PFGNode, FrozenSet[Expr]] = {}
        for node in graph.nodes:
            gen, kill = _node_gen_kill(node, self.universe)
            self._gen[node] = gen
            self._kill[node] = kill
            self._entry_kill[node] = self._merge_kills(node)
        self.avail_in: Dict[PFGNode, FrozenSet[Expr]] = {}
        self.avail_out: Dict[PFGNode, FrozenSet[Expr]] = {}

    # -- parallel kill rules --------------------------------------------------

    def _merge_kills(self, node: PFGNode) -> FrozenSet[Expr]:
        killed: Set[Expr] = set()
        if node.is_join:
            regions = compute_regions(self.graph)
            construct = regions[node.construct_id]
            writers: Dict[str, Set[int]] = {}
            for section, members in construct.section_nodes.items():
                for member in members:
                    for d in member.defs:
                        writers.setdefault(d.var, set()).add(section)
            mixed = {var for var, sections in writers.items() if len(sections) >= 2}
            killed |= {e for e in self.universe if mixed & set(e.variables())}
        if node.is_wait:
            info = compute_genkill(self.graph)
            near, var_defs = info.concurrent_defs(node), info.var_defs
            for e in self.universe:
                if any(near & var_defs.get(var, 0) for var in e.variables()):
                    killed.add(e)
        return frozenset(killed)

    # -- framework interface ------------------------------------------------------

    def nodes(self):
        return self.graph.document_order()

    def initialize(self) -> None:
        for n in self.graph.nodes:
            # optimistic top everywhere except the entry
            self.avail_in[n] = frozenset() if n is self.graph.entry else self._top
            self.avail_out[n] = self._top
        if self.graph.entry is not None:
            n = self.graph.entry
            self.avail_out[n] = (self.avail_in[n] - self._kill[n]) | self._gen[n]

    def update(self, n: PFGNode) -> bool:
        preds = self.graph.control_preds(n)
        if n is self.graph.entry or not preds:
            new_in: FrozenSet[Expr] = frozenset()
        else:
            new_in = self.avail_out[preds[0]]
            for p in preds[1:]:
                new_in = new_in & self.avail_out[p]
            new_in = new_in - self._entry_kill[n]
        new_out = (new_in - self._kill[n]) | self._gen[n]
        changed = new_in != self.avail_in[n] or new_out != self.avail_out[n]
        self.avail_in[n] = new_in
        self.avail_out[n] = new_out
        return changed

    def dependents(self, n: PFGNode) -> Iterable[PFGNode]:
        return self.graph.control_succs(n)

    def snapshot(self):
        return {
            "AvailIn": {n.name: self.avail_in[n] for n in self.graph.nodes},
            "AvailOut": {n.name: self.avail_out[n] for n in self.graph.nodes},
        }


@dataclass
class AvailableExpressions:
    """Fixpoint availability with name-based accessors."""

    graph: ParallelFlowGraph
    avail_in: Dict[PFGNode, FrozenSet[Expr]]
    avail_out: Dict[PFGNode, FrozenSet[Expr]]
    universe: List[Expr]
    stats: SolveStats

    def _node(self, ref) -> PFGNode:
        return self.graph.node(ref) if isinstance(ref, str) else ref

    def AvailIn(self, ref) -> FrozenSet[Expr]:
        return self.avail_in[self._node(ref)]

    def AvailOut(self, ref) -> FrozenSet[Expr]:
        return self.avail_out[self._node(ref)]

    def is_available(self, ref, expr: Expr) -> bool:
        return expr in self.avail_in[self._node(ref)]


def solve_available_expressions(graph: ParallelFlowGraph) -> AvailableExpressions:
    """Run available expressions to its greatest fixpoint."""
    system = AvailableExpressionsSystem(graph)
    stats = solve_round_robin(system, graph.document_order(), order_name="document")
    return AvailableExpressions(
        graph=graph,
        avail_in=dict(system.avail_in),
        avail_out=dict(system.avail_out),
        universe=system.universe,
        stats=stats,
    )


@dataclass(frozen=True)
class RedundantComputation:
    """An assignment recomputing an expression already available there."""

    node: PFGNode
    target: str
    expr: Expr

    def format(self) -> str:
        return f"({self.node.name}) {self.target} = {self.expr} — expression already available"


def find_redundant_computations(graph: ParallelFlowGraph) -> List[RedundantComputation]:
    """Assignments whose right-hand side is available at their block start
    (and whose operands are untouched earlier in the block)."""
    avail = solve_available_expressions(graph)
    out: List[RedundantComputation] = []
    for node in graph.nodes:
        touched: Set[str] = set()
        for _ordinal, stmt in node.assignments():
            expr = stmt.expr
            if (
                isinstance(expr, (ast.BinOp, ast.UnaryOp))
                and expr.variables()
                and expr in avail.AvailIn(node)
                and not (touched & set(expr.variables()))
            ):
                out.append(RedundantComputation(node=node, target=stmt.target, expr=expr))
            touched.add(stmt.target)
    return out
