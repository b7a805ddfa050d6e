"""The one expression walker against the recursive traversals it replaced.

``Expr.postorder`` (and ``Expr.fold`` on top of it) now serve ``str``,
``variables()``, equality and hashing, cse's value keys, constant
propagation, the interpreter, the CSSA renderer and fuzz renaming, and
the last two evaluators share one operator table, ``ast.apply_binop``.
On expressions from the program generator, ``random_mix``, the paper's
figures and seeded random expressions over every operator, each must
give what the recursive reference in ``reference_expr`` gives, with the
operator tables each evaluator had: the same text, variables, constant
values, uses and free-value draws, and the same equality classes (cse's
key moved from preorder to postorder tokens, so only which keys are
equal has to agree).
"""

import random
from itertools import combinations

import pytest

from repro import analyze
from repro.analysis import constprop, cse
from repro.analysis.constprop import propagate_constants
from repro.analysis.cse import find_common_subexpressions
from repro.analysis.udchains import UDChains
from repro.cssa import render
from repro.cssa.build import build_cssa
from repro.fuzz import mutate
from repro.interp.interp import Interpreter, run_program
from repro.interp.scheduler import RandomScheduler
from repro.lang import ast, parse_program
from repro.lang.pretty import pretty
from repro.paper import SOURCES
from repro.synthetic.generator import GeneratorConfig, generate_program
from repro.synthetic.workloads import random_mix

from .reference_expr import (
    reference_eval_expr,
    reference_identity,
    reference_interp_eval,
    reference_rename,
    reference_render_cssa_expr,
    reference_repr,
    reference_str,
    reference_value_key,
    reference_variables,
    reference_walk,
)

VARS = ("a", "b", "c", "d")


def random_expr(rng, depth):
    """Every operator, both literal kinds, and unary chains."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        number, truth = ast.IntLit(rng.randint(-2, 9)), ast.BoolLit(rng.random() < 0.5)
        return rng.choice((number, truth, ast.Var(rng.choice(VARS))))
    if roll < 0.45:
        return ast.UnaryOp(rng.choice(ast.UNARY_OPS), random_expr(rng, depth - 1))
    return ast.BinOp(
        rng.choice(ast.BINARY_OPS), random_expr(rng, depth - 1), random_expr(rng, depth - 1)
    )


def mixed_program(seed):
    """Straight-line code, a branch and parallel sections over a pool of
    random expressions, each drawn several times (cse candidates)."""
    rng = random.Random(seed)
    pool = [random_expr(rng, rng.randint(1, 5)) for _ in range(6)]

    def assigns(n):
        return [ast.Assign(target=rng.choice(VARS), expr=rng.choice(pool)) for _ in range(n)]

    body = [ast.Assign(target=v, expr=ast.IntLit(i)) for i, v in enumerate(VARS[:2])]
    body += assigns(4)
    body.append(ast.If(cond=rng.choice(pool), then_body=assigns(2), else_body=assigns(2)))
    sections = [ast.Section(name=name, body=assigns(2)) for name in ("A", "B")]
    body.append(ast.ParallelSections(sections=sections))
    body += assigns(3)
    return ast.Program(name=f"mixed{seed}", events=[], body=body)


def corpus():
    config = GeneratorConfig(target_stmts=25, with_sync=False)
    programs = [generate_program(seed, config) for seed in range(12)]
    programs += [random_mix(seed, 60) for seed in range(4)]
    programs += [parse_program(source) for _name, source in sorted(SOURCES.items())]
    programs += [mixed_program(seed) for seed in range(12)]
    return programs


PROGRAMS = corpus()


def expressions(program):
    for stmt in program.walk():
        if isinstance(stmt, ast.Assign):
            yield stmt.expr
        elif isinstance(stmt, (ast.If, ast.While)):
            yield stmt.cond


EXPRS = [e for program in PROGRAMS for e in expressions(program)]
TRICKY = [
    ast.IntLit(1),
    ast.BoolLit(True),
    ast.IntLit(0),
    ast.BoolLit(False),
    ast.UnaryOp("-", ast.Var("a")),
    ast.UnaryOp("not", ast.Var("a")),
    ast.BinOp("+", ast.BinOp("+", ast.Var("a"), ast.Var("b")), ast.Var("c")),
    ast.BinOp("+", ast.Var("a"), ast.BinOp("+", ast.Var("b"), ast.Var("c"))),
    ast.BinOp("+", ast.IntLit(1), ast.Var("a")),
    ast.BinOp("+", ast.BoolLit(True), ast.Var("a")),
]


def test_corpus_covers_every_operator():
    ops = {n.op for e in EXPRS for n in e.postorder() if isinstance(n, (ast.BinOp, ast.UnaryOp))}
    assert ops == set(ast.BINARY_OPS) | set(ast.UNARY_OPS)


def test_postorder_puts_children_first_and_leaves_in_source_order():
    for e in EXPRS + TRICKY:
        order = list(e.postorder())
        assert order[-1] is e
        seen = set()
        for node in order:
            children = {
                ast.BinOp: lambda n: (n.left, n.right),
                ast.UnaryOp: lambda n: (n.operand,),
            }.get(type(node), lambda n: ())(node)
            assert all(id(child) in seen for child in children)
            seen.add(id(node))
        names = [n.name for n in order if isinstance(n, ast.Var)]
        assert tuple(dict.fromkeys(names)) == reference_variables(e)


def test_str_and_variables_match_reference():
    for e in EXPRS + TRICKY:
        assert str(e) == reference_str(e)
        assert e.variables() == reference_variables(e)


def test_repr_matches_dataclass_repr():
    for e in EXPRS + TRICKY:
        assert repr(e) == reference_repr(e)


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_walk_matches_recursive_reference(program):
    expected = [s for stmt in program.body for s in reference_walk(stmt)]
    assert [id(s) for s in program.walk()] == [id(s) for s in expected]
    for stmt in expected:
        assert [id(s) for s in stmt.walk()] == [id(s) for s in reference_walk(stmt)]


def test_equality_and_hashing_match_reference():
    exprs = EXPRS + TRICKY
    for e in exprs:
        copy = reference_rename(e, {})
        assert copy == e and hash(copy) == hash(e)
        assert ast.structurally_equal(copy, e)
    assert len(set(exprs)) == len({reference_identity(e) for e in exprs})
    sample = random.Random(0).sample(EXPRS, 150) + TRICKY
    for a, b in combinations(sample, 2):
        same = reference_identity(a) == reference_identity(b)
        assert (a == b) is same and (a != b) is not same, (a, b)
        if same:
            assert hash(a) == hash(b)


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_cse_value_keys_classify_like_reference(program, monkeypatch):
    result = analyze(program)
    chains = UDChains.from_result(result)
    keys = []
    for node in result.graph.document_order():
        for d in node.defs:
            args = (chains, d.stmt.expr, node.name, chains.ordinals[d])
            keys.append((cse._value_key(*args), reference_value_key(*args)))
    for (new_a, ref_a), (new_b, ref_b) in combinations(keys, 2):
        assert (new_a == new_b) == (ref_a == ref_b)

    found = [c.format() for c in find_common_subexpressions(result, chains)]
    monkeypatch.setattr(cse, "_value_key", reference_value_key)
    assert found == [c.format() for c in find_common_subexpressions(result, chains)]


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_constant_values_match_reference(program, monkeypatch):
    result = analyze(program)
    values = propagate_constants(result).values
    monkeypatch.setattr(constprop.ConstantPropagation, "_eval_expr", reference_eval_expr)
    expected = propagate_constants(result).values
    assert list(values) == list(expected)
    for d, value in values.items():
        assert type(value) is type(expected[d]) and value == expected[d], d


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_interpreter_uses_and_free_values_match_reference(program, monkeypatch):
    def observe():
        run = run_program(program, RandomScheduler(seed=5))
        env = {var: (cell.value, cell.definition) for var, cell in run.final_env.items()}
        return run.uses, run.inputs, env, run.node_trace

    got = observe()
    monkeypatch.setattr(Interpreter, "_eval", reference_interp_eval)
    assert got == observe()


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_cssa_render_and_rename_match_reference(program, monkeypatch):
    graph = analyze(program).graph
    form = build_cssa(graph)
    text = render.render_cssa(graph, form)
    renamed = pretty(mutate.rename_variables(program, seed=3).program)
    monkeypatch.setattr(render, "_render_expr", reference_render_cssa_expr)
    monkeypatch.setattr(mutate, "_rename_expr", reference_rename)
    assert text == render.render_cssa(graph, form)
    assert renamed == pretty(mutate.rename_variables(program, seed=3).program)
