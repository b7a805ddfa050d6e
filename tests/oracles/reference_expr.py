"""Reference AST walkers: the recursive traversals that
``Expr.postorder`` and ``Expr.fold`` replaced, the dataclass-generated
expression ``repr`` that ``Expr.__repr__`` replaced, and the recursive
``Stmt.walk`` that the explicit-stack walk replaced.

Each is kept as it was (or, for equality and hashing, as the frozen
dataclass generated it: the class, then the fields in order), so the
oracle tests can assert the iterative walkers print, collect, compare,
key and evaluate exactly as before.  So are the two operator tables the
interpreter and constant propagation kept before they shared
``ast.apply_binop``.  The walkers recurse, so they are only for
expressions shallower than the interpreter's stack.
"""

from __future__ import annotations

from dataclasses import fields

from repro.analysis.constprop import UNDEF, VARYING
from repro.interp.trace import UseObservation
from repro.ir.defs import Use
from repro.lang import ast


def reference_apply(op, left, right, by_zero):
    """``left op right``; ``/`` and ``%`` by zero give ``by_zero``: 0 in the
    interpreter, ``VARYING`` (no constant) in constant propagation."""
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return by_zero if right == 0 else int(left) // int(right)
    if op == "%":
        return by_zero if right == 0 else int(left) % int(right)
    if op == "==":
        return left == right
    if op == "/=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "and":
        return bool(left) and bool(right)
    if op == "or":
        return bool(left) or bool(right)
    raise ValueError(f"unknown operator {op!r}")


def reference_str(e):
    if isinstance(e, ast.BinOp):
        return f"({reference_str(e.left)} {e.op} {reference_str(e.right)})"
    if isinstance(e, ast.UnaryOp):
        inner = reference_str(e.operand)
        return f"(not {inner})" if e.op == "not" else f"(-{inner})"
    if isinstance(e, ast.BoolLit):
        return "true" if e.value else "false"
    return str(e.value if isinstance(e, ast.IntLit) else e.name)


def reference_variables(e):
    out = []

    def visit(node):
        if isinstance(node, ast.Var):
            out.append(node.name)
        elif isinstance(node, ast.BinOp):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, ast.UnaryOp):
            visit(node.operand)

    visit(e)
    return tuple(dict.fromkeys(out))


def reference_identity(e):
    """What the dataclass ``__eq__``/``__hash__`` compared: the class and
    every field, children compared the same way."""
    if isinstance(e, ast.BinOp):
        return (ast.BinOp, e.op, reference_identity(e.left), reference_identity(e.right))
    if isinstance(e, ast.UnaryOp):
        return (ast.UnaryOp, e.op, reference_identity(e.operand))
    return (type(e), e.name if isinstance(e, ast.Var) else e.value)


def reference_value_key(chains, expr, site, ordinal):
    """cse's value key in preorder, as it was before the walker."""
    if isinstance(expr, ast.BinOp):
        return (
            ("bin", expr.op),
            reference_value_key(chains, expr.left, site, ordinal),
            reference_value_key(chains, expr.right, site, ordinal),
        )
    if isinstance(expr, ast.UnaryOp):
        return (("unary", expr.op), reference_value_key(chains, expr.operand, site, ordinal))
    if isinstance(expr, ast.IntLit):
        return ("int", expr.value)
    if isinstance(expr, ast.BoolLit):
        return ("bool", expr.value)
    reaching = chains.defs_for(Use(var=expr.name, site=site, ordinal=ordinal))
    return ("defs", frozenset(d.index for d in reaching)) if reaching else ("free", expr.name)


def reference_eval_expr(self, expr, reads):
    """``ConstantPropagation._eval_expr``, recursively."""
    if isinstance(expr, ast.BinOp):
        left = reference_eval_expr(self, expr.left, reads)
        right = reference_eval_expr(self, expr.right, reads)
        if left is UNDEF or right is UNDEF:
            return UNDEF
        if left is VARYING or right is VARYING:
            return VARYING
        return reference_apply(expr.op, left, right, VARYING)
    if isinstance(expr, ast.UnaryOp):
        inner = reference_eval_expr(self, expr.operand, reads)
        if inner is not UNDEF and inner is not VARYING:
            inner = (not inner) if expr.op == "not" else -inner
        return inner
    return self._eval_atom(expr, reads)


def reference_interp_eval(self, expr, t, loc):
    """``Interpreter._eval``, recursively: left operand first."""
    if isinstance(expr, (ast.IntLit, ast.BoolLit)):
        return expr.value
    if isinstance(expr, ast.Var):
        cell = t.env.get(expr.name)
        if cell is None:
            if expr.name not in self.inputs:
                self.inputs[expr.name] = self.scheduler.free_value(expr.name)
            value = self.inputs[expr.name]
            definition = None
        else:
            value = cell.value
            definition = cell.definition
        if loc is not None:
            use = Use(var=expr.name, site=loc[0], ordinal=loc[1])
            self.result.uses.append(UseObservation(use=use, definition=definition))
        return value
    if isinstance(expr, ast.UnaryOp):
        inner = reference_interp_eval(self, expr.operand, t, loc)
        return (not inner) if expr.op == "not" else -inner
    left = reference_interp_eval(self, expr.left, t, loc)
    right = reference_interp_eval(self, expr.right, t, loc)
    return reference_apply(expr.op, left, right, 0)


def reference_render_cssa_expr(expr, lookup):
    if isinstance(expr, ast.Var):
        version = lookup(expr.name)
        return str(version) if version is not None else f"{expr.name}_⊥"
    if isinstance(expr, ast.UnaryOp):
        inner = reference_render_cssa_expr(expr.operand, lookup)
        return f"(not {inner})" if expr.op == "not" else f"(-{inner})"
    if isinstance(expr, ast.BinOp):
        left = reference_render_cssa_expr(expr.left, lookup)
        return f"({left} {expr.op} {reference_render_cssa_expr(expr.right, lookup)})"
    return reference_str(expr)


def reference_rename(expr, vmap):
    """fuzz mutate's ``_rename_expr``, recursively."""
    if isinstance(expr, ast.Var):
        return ast.Var(vmap.get(expr.name, expr.name))
    if isinstance(expr, ast.BinOp):
        left = reference_rename(expr.left, vmap)
        return ast.BinOp(expr.op, left, reference_rename(expr.right, vmap))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, reference_rename(expr.operand, vmap))
    return expr


def reference_repr(e):
    """What the dataclass-generated ``__repr__`` printed: the class's
    qualified name, then every field as ``name=repr(value)``."""
    if not isinstance(e, ast.Expr):
        return repr(e)
    args = ", ".join(f"{f.name}={reference_repr(getattr(e, f.name))}" for f in fields(e) if f.repr)
    return f"{type(e).__qualname__}({args})"


def reference_walk(stmt):
    """``stmt`` and every statement below it, pre-order, by recursion."""
    yield stmt
    for child in stmt.children():
        yield from reference_walk(child)
