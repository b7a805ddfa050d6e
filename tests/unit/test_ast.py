"""AST helper tests: walkers, variable collection, structural equality."""

import pytest

from repro.lang import ast, parse_program


def test_expr_variables_order_and_dedup():
    e = ast.BinOp("+", ast.BinOp("*", ast.Var("b"), ast.Var("a")), ast.Var("b"))
    assert e.variables() == ("b", "a")


def test_literal_has_no_variables():
    assert ast.IntLit(3).variables() == ()
    assert ast.BoolLit(True).variables() == ()


def test_unary_collects_variables():
    assert ast.UnaryOp("-", ast.Var("x")).variables() == ("x",)


def test_invalid_binop_rejected():
    with pytest.raises(ValueError):
        ast.BinOp("**", ast.IntLit(1), ast.IntLit(2))


def test_invalid_unary_rejected():
    with pytest.raises(ValueError):
        ast.UnaryOp("+", ast.IntLit(1))


def test_walk_visits_all_nested_statements():
    src = """program p
x = 1
if c then
  y = 2
  loop
    z = 3
  endloop
else
  w = 4
endif
parallel sections
  section A
    a = 5
  section B
    b = 6
end parallel sections
end"""
    prog = parse_program(src)
    assigns = [s for s in prog.walk() if isinstance(s, ast.Assign)]
    assert [a.target for a in assigns] == ["x", "y", "z", "w", "a", "b"]


def test_assigned_variables_in_order():
    prog = parse_program("program p\nb = 1\na = 2\nb = 3\nend")
    assert prog.assigned_variables() == ("b", "a")


def test_used_variables_includes_conditions():
    prog = parse_program("program p\nif q < 1 then\nx = r\nendif\nend")
    assert set(prog.used_variables()) == {"q", "r"}


def test_statements_compare_by_identity():
    a = ast.Assign(target="x", expr=ast.IntLit(1))
    b = ast.Assign(target="x", expr=ast.IntLit(1))
    assert a != b
    assert a == a
    assert len({a, b}) == 2  # hashable, distinct


def test_list_index_uses_identity():
    a = ast.Assign(target="x", expr=ast.IntLit(1))
    b = ast.Assign(target="x", expr=ast.IntLit(1))
    stmts = [a, b]
    assert stmts.index(b) == 1


def test_structural_equality_ignores_spans():
    p1 = parse_program("program p\nx = 1\nend")
    p2 = parse_program("program p\n\n\nx =    1\nend")
    assert ast.structurally_equal(p1, p2)


def test_structural_equality_detects_differences():
    p1 = parse_program("program p\nx = 1\nend")
    p2 = parse_program("program p\nx = 2\nend")
    p3 = parse_program("program p\n(4) x = 1\nend")
    assert not ast.structurally_equal(p1, p2)
    assert not ast.structurally_equal(p1, p3)  # labels are significant


def test_expressions_are_structurally_equal_values():
    assert ast.BinOp("+", ast.Var("x"), ast.IntLit(1)) == ast.BinOp(
        "+", ast.Var("x"), ast.IntLit(1)
    )


def _recursive_str(e):
    """The recursive rendering the iterative ``__str__`` replaced."""
    if isinstance(e, ast.BinOp):
        return f"({_recursive_str(e.left)} {e.op} {_recursive_str(e.right)})"
    if isinstance(e, ast.UnaryOp):
        inner = _recursive_str(e.operand)
        return f"(not {inner})" if e.op == "not" else f"(-{inner})"
    return str(e)


def test_str_matches_recursive_rendering():
    e = ast.BinOp(
        "and",
        ast.UnaryOp("not", ast.BinOp("<", ast.Var("a"), ast.IntLit(3))),
        ast.BinOp("==", ast.UnaryOp("-", ast.Var("b")), ast.BoolLit(False)),
    )
    assert str(e) == _recursive_str(e) == "((not (a < 3)) and ((-b) == false))"


def test_postorder_and_fold():
    a_plus_1 = ast.BinOp("+", ast.Var("a"), ast.IntLit(1))
    e = ast.BinOp("*", ast.UnaryOp("-", a_plus_1), ast.Var("b"))
    assert [str(n) for n in e.postorder()] == [
        "a", "1", "(a + 1)", "(-(a + 1))", "b", "((-(a + 1)) * b)"
    ]
    assert a_plus_1.postorder() == [a_plus_1.left, a_plus_1.right, a_plus_1]
    size = e.fold(lambda leaf: 1, lambda node, n: n + 1, lambda node, l, r: l + r + 1)
    assert size == len(e.postorder()) == 6
    assert ast.Var("x").fold(str, None, None) == "x"


def test_deep_expressions_print_and_collect_without_recursion():
    # Deeper than the interpreter's stack: a left-associative sum and a
    # run of unary minus signs, as the parser builds them.
    total = ast.Var("x0")
    for i in range(1, 3000):
        total = ast.BinOp("+", total, ast.Var(f"x{i % 7}"))
    assert total.variables() == tuple(f"x{i}" for i in range(7))
    assert str(total) == "(" * 2999 + "x0" + "".join(f" + x{i % 7})" for i in range(1, 3000))
    neg = ast.Var("y")
    for _ in range(3000):
        neg = ast.UnaryOp("-", neg)
    assert neg.variables() == ("y",)
    assert str(neg) == "(-" * 3000 + "y" + ")" * 3000


def _long_sum(last=ast.IntLit(1)):
    """``x + 1 + … + last``: 1,200 terms, as deep as it is long."""
    total = ast.Var("x")
    for _ in range(1198):
        total = ast.BinOp("+", total, ast.IntLit(1))
    return ast.BinOp("+", total, last)


def _deep_unary(op="-"):
    """600 unary operators over ``x``."""
    neg = ast.Var("x")
    for _ in range(600):
        neg = ast.UnaryOp(op, neg)
    return neg


@pytest.mark.parametrize(
    "build, other",
    [
        (_long_sum, lambda: _long_sum(ast.IntLit(2))),
        (_long_sum, lambda: _long_sum(ast.BoolLit(True))),
        (_deep_unary, lambda: _deep_unary("not")),
    ],
    ids=["long-sum", "long-sum-bool", "deep-unary"],
)
def test_deep_expressions_compare_and_hash_without_recursion(build, other):
    # Two separately built trees, so equality cannot stop at identity.
    a, b, c = build(), build(), other()
    assert a is not b and a == b and not (a != b)
    assert hash(a) == hash(b) and len({a, b, c}) == 2
    assert a != c and not (a == c)
    assert ast.structurally_equal(a, b) and not ast.structurally_equal(a, c)


def test_deep_expressions_repr_without_recursion():
    # The dataclass repr recursed once per level and overflowed the stack.
    assert repr(_long_sum()) == (
        "BinOp(op='+', left=" * 1199 + "Var(name='x')" + ", right=IntLit(value=1))" * 1199
    )
    assert repr(_deep_unary()) == "UnaryOp(op='-', operand=" * 600 + "Var(name='x')" + ")" * 600
