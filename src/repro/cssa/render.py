"""Textual rendering of the CSSA form: the program's blocks with merge
pseudo-assignments at block starts and SSA-versioned statements."""

from __future__ import annotations

from typing import List

from ..lang import ast
from ..pfg.graph import ParallelFlowGraph
from .form import CSSAForm, SSAName


def _render_expr(expr: ast.Expr, lookup) -> str:
    def leaf(node: ast.Expr) -> str:
        version = lookup(node.name) if isinstance(node, ast.Var) else node
        return f"{node.name}_⊥" if version is None else str(version)

    return expr.fold(
        leaf,
        lambda node, inner: f"(not {inner})" if node.op == "not" else f"(-{inner})",
        lambda node, left, right: f"({left} {node.op} {right})",
    )


def render_cssa(graph: ParallelFlowGraph, form: CSSAForm) -> str:
    """Render the whole graph in CSSA form, one block per section."""
    from ..ir.defs import Use

    lines: List[str] = [f"CSSA form of {graph.program_name}"]
    for node in graph.document_order():
        header = f"block ({node.name}) [{node.kind}]"
        if node.wait_event:
            header += f"  wait({node.wait_event})"
        lines.append(header)
        for merge in form.merges_at(node):
            lines.append(f"  {merge.format()}")
        for ordinal, stmt in enumerate(node.stmts):
            if isinstance(stmt, ast.Assign):
                d = next(dd for dd in node.defs if dd.stmt is stmt)

                def lookup(var, _ordinal=ordinal, _node=node):
                    return form.use_versions.get(
                        Use(var=var, site=_node.name, ordinal=_ordinal)
                    )

                rhs = _render_expr(stmt.expr, lookup)
                lines.append(f"  {form.version_of(d)} = {rhs}")
            elif isinstance(stmt, ast.Clear):
                lines.append(f"  clear({stmt.event})")
        if node.post_event:
            lines.append(f"  post({node.post_event})")
        if node.cond is not None:
            ordinal = len(node.stmts)

            def lookup_cond(var, _node=node, _ordinal=ordinal):
                return form.use_versions.get(Use(var=var, site=_node.name, ordinal=_ordinal))

            lines.append(f"  branch {_render_expr(node.cond, lookup_cond)}")
    return "\n".join(lines) + "\n"
