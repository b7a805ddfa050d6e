"""Reference clients: ud-chains as frozensets, propagated pair by pair.

The clients in :mod:`repro.analysis` propagate over int masks of
definition indices (``UDChains.masks``/``rhs``).  This module keeps the
algorithms they replaced, reading decoded chains only:

* :class:`ReferenceChains` — ud-chains grouped from the decoded ``In``
  rows (:func:`reference_ud_chains`), du-chains by inverting them, and
  ``reaching_use`` for positions no statement reads;
* :func:`reference_constants` — the FIFO worklist over per-pair
  dependents, seeded in document order;
* :func:`reference_dead_code` — mark and sweep over definition sets;
* :func:`reference_copies` and :func:`reference_subexpressions` — copy
  propagation over singleton chains and CSE keyed by the frozenset of
  reaching definition indices;
* :func:`reference_anomalies` and :func:`reference_wait_kills` — the
  anomaly severities and available expressions' wait kills, each
  concurrency test a pairwise ``concurrent()`` query (the clients read
  ``GenKillInfo.concurrent_defs`` masks).

Every function returns what the client it mirrors returns, so the
oracle compares values, reports and lists directly.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Tuple

from repro.analysis.anomalies import Anomaly, AnomalyKind, _pardo_races
from repro.analysis.constprop import UNDEF, VARYING, _apply_binop, meet
from repro.analysis.copyprop import CopyPropagation
from repro.analysis.cse import CommonSubexpression
from repro.analysis.deadcode import DeadCodeReport
from repro.ir.defs import Definition, Use
from repro.lang import ast
from repro.pfg.concurrency import concurrent

from .reference_udchains import reference_ud_chains


def _lattice_eq(a, b) -> bool:
    if a is UNDEF or a is VARYING or b is UNDEF or b is VARYING:
        return a is b
    return type(a) is type(b) and a == b


class ReferenceChains:
    """ud-chains from the decoded ``In`` rows, and their inverse."""

    def __init__(self, result):
        self.result = result
        self.ud: Dict[Use, FrozenSet[Definition]] = reference_ud_chains(result)
        self.ordinals: Dict[Definition, int] = {}
        for node in result.graph.nodes:
            for (ordinal, _), d in zip(node.assignments(), node.defs):
                self.ordinals[d] = ordinal
        du: Dict[Definition, List[Use]] = {d: [] for d in result.graph.defs}
        for use, defs in self.ud.items():
            for d in defs:
                du[d].append(use)
        self.du: Dict[Definition, Tuple[Use, ...]] = {d: tuple(u) for d, u in du.items()}

    def defs_for(self, use: Use) -> FrozenSet[Definition]:
        return self.ud[use]

    def reaching_use(self, use: Use) -> FrozenSet[Definition]:
        defs = self.ud.get(use)
        if defs is not None:
            return defs
        node = self.result.graph.node(use.site)
        local = node.local_def_before(use.var, use.ordinal)
        if local is not None:
            return frozenset((local,))
        return frozenset(d for d in self.result.in_sets[node] if d.var == use.var)


# -- constant propagation: FIFO worklist over dependents ----------------------


def _eval_expr(values, expr, reads):
    if isinstance(expr, (ast.IntLit, ast.BoolLit)):
        return expr.value
    if isinstance(expr, ast.Var):
        reaching = reads[expr.name]
        if not reaching:
            return VARYING  # free variable: unknown input
        acc = UNDEF
        for d in reaching:
            acc = meet(acc, values[d])
            if acc is VARYING:
                break
        return acc
    if isinstance(expr, ast.UnaryOp):
        inner = _eval_expr(values, expr.operand, reads)
        if inner is UNDEF or inner is VARYING:
            return inner
        return (not inner) if expr.op == "not" else -inner
    left = _eval_expr(values, expr.left, reads)
    right = _eval_expr(values, expr.right, reads)
    if left is UNDEF or right is UNDEF:
        return UNDEF
    if left is VARYING or right is VARYING:
        return VARYING
    return _apply_binop(expr.op, left, right)


def reference_constants(result, chains: ReferenceChains) -> Tuple[Dict[Definition, object], int]:
    """``(values, evaluations)`` of the FIFO worklist."""
    values = {d: UNDEF for d in result.graph.defs}
    reads: Dict[Definition, Dict[str, FrozenSet[Definition]]] = {}
    dependents: Dict[Definition, List[Definition]] = {d: [] for d in values}
    for node in result.graph.nodes:
        for (ordinal, _), e in zip(node.assignments(), node.defs):
            reads[e] = {
                var: chains.defs_for(Use(var=var, site=node.name, ordinal=ordinal))
                for var in node.reads[ordinal]
            }
            for defs in reads[e].values():
                for d in defs:
                    dependents[d].append(e)
    work = deque(values)
    queued = set(values)
    evals = 0
    while work:
        d = work.popleft()
        queued.discard(d)
        evals += 1
        new = _eval_expr(values, d.stmt.expr, reads[d])
        if not _lattice_eq(new, values[d]):
            values[d] = new
            for e in dependents[d]:
                if e not in queued:
                    queued.add(e)
                    work.append(e)
    return values, evals


def reference_value_at(result, values, node, var):
    acc = UNDEF
    for d in result.in_sets[result.graph.node(node) if isinstance(node, str) else node]:
        if d.var == var:
            acc = meet(acc, values[d])
    return acc


# -- dead code: mark and sweep over definition sets ---------------------------


def reference_dead_code(result, chains: ReferenceChains, observable_at_exit=True) -> DeadCodeReport:
    graph = result.graph
    roots = set()
    if observable_at_exit and graph.exit is not None:
        roots |= result.in_sets[graph.exit] | result.out_sets[graph.exit]
    for node in graph.nodes:
        if node.cond is not None:
            for var in node.cond.variables():
                roots |= chains.defs_for(Use(var=var, site=node.name, ordinal=len(node.stmts)))
    live = set()
    work = list(roots)
    while work:
        d = work.pop()
        if d in live:
            continue
        live.add(d)
        ordinal = chains.ordinals[d]
        for var in d.stmt.expr.variables():
            for feeder in chains.defs_for(Use(var=var, site=d.site, ordinal=ordinal)):
                if feeder not in live:
                    work.append(feeder)
    dead = frozenset(set(graph.defs) - live)
    return DeadCodeReport(live=frozenset(live), dead=dead, roots=frozenset(roots))


# -- copy propagation and CSE over decoded chains ------------------------------


def reference_copies(result, chains: ReferenceChains) -> List[CopyPropagation]:
    graph = result.graph
    out = []
    for use, reaching in chains.ud.items():
        if len(reaching) != 1:
            continue
        (d,) = reaching
        if not isinstance(d.stmt.expr, ast.Var):
            continue
        source = d.stmt.expr.name
        at_def = chains.defs_for(Use(var=source, site=d.site, ordinal=chains.ordinals[d]))
        at_use = chains.reaching_use(Use(var=source, site=use.site, ordinal=use.ordinal))
        if at_def != at_use or not at_def:
            continue
        def_node, use_node = graph.node(d.site), graph.node(use.site)
        if any(
            concurrent(result.info.def_node[w], def_node)
            or concurrent(result.info.def_node[w], use_node)
            for w in graph.defs.of_var(source)
        ):
            continue
        out.append(CopyPropagation(use=use, copy_def=d, source=source))
    return out


def reference_value_key(chains: ReferenceChains, expr, site, ordinal) -> tuple:
    """cse's value key with the frozenset of reaching definition indices."""
    key = []
    for node in expr.postorder():
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            key.append((type(node), node.op))
        elif not isinstance(node, ast.Var):
            key.append((type(node), node.value))
        else:
            reaching = chains.defs_for(Use(var=node.name, site=site, ordinal=ordinal))
            key.append(
                ("defs", frozenset(d.index for d in reaching)) if reaching else ("free", node.name)
            )
    return tuple(key)


def reference_subexpressions(result, chains: ReferenceChains) -> List[CommonSubexpression]:
    graph = result.graph
    by_key: Dict[tuple, List[Definition]] = {}
    for node in graph.document_order():
        for d in node.defs:
            if isinstance(d.stmt.expr, (ast.IntLit, ast.BoolLit, ast.Var)):
                continue
            key = reference_value_key(chains, d.stmt.expr, node.name, chains.ordinals[d])
            by_key.setdefault(key, []).append(d)
    out = []
    for candidates in by_key.values():
        for i, earlier in enumerate(candidates):
            for later in candidates[i + 1 :]:
                holds = chains.reaching_use(
                    Use(var=earlier.var, site=later.site, ordinal=chains.ordinals[later])
                ) == frozenset((earlier,))
                if not holds or concurrent(graph.node(earlier.site), graph.node(later.site)):
                    continue
                out.append(
                    CommonSubexpression(earlier=earlier, later=later, expr=str(later.stmt.expr))
                )
    return out


# -- anomalies and wait kills by pairwise concurrency ------------------------


def reference_anomalies(result) -> List[Anomaly]:
    """``find_anomalies``: a join or wait's reaching definitions of one
    variable race iff some two of them may run concurrently."""
    out = []
    for node in result.graph.nodes:
        if not (node.is_join or node.is_wait):
            continue
        by_var: Dict[str, List[Definition]] = {}
        for d in result.In(node):
            by_var.setdefault(d.var, []).append(d)
        for var, defs in sorted(by_var.items()):
            if len(defs) < 2:
                continue
            nodes = [result.info.def_node[d] for d in defs]
            racy = any(
                concurrent(nodes[i], nodes[j])
                for i in range(len(defs))
                for j in range(i + 1, len(defs))
            )
            kind = AnomalyKind.RACE if racy else AnomalyKind.MULTIPLE
            out.append(Anomaly(kind=kind, node=node, var=var, defs=frozenset(defs)))
    return out + _pardo_races(result)


def reference_wait_kills(graph, universe) -> Dict[object, FrozenSet]:
    """Available expressions' entry kill at each wait: the expressions
    over a variable some definition concurrent with the wait writes."""
    return {
        node: frozenset(
            e
            for e in universe
            if any(
                concurrent(graph.node(d.site), node)
                for var in e.variables()
                for d in graph.defs.of_var(var)
            )
        )
        for node in graph.waits
    }
