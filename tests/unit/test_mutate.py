"""Metamorphic transforms (:mod:`repro.fuzz.mutate`): every mutant must
stay a well-formed program — parser round-trip and PFG validation — on
50 seeded generator programs, and the transform bookkeeping (statement
and variable maps) must be usable for chain comparison.
"""

import pytest

from repro.fuzz.mutate import MUTATORS, apply_mutators, clone_program, rename_variables
from repro.lang import ast, parse_expression, parse_program, pretty
from repro.lang.ast import structurally_equal
from repro.pfg import build_pfg, validate_pfg
from repro.synthetic import GeneratorConfig, generate_program

SEEDS = range(50)


def _program(seed):
    return generate_program(
        seed, GeneratorConfig(target_stmts=20, p_parallel=0.3), name=f"m{seed}"
    )


@pytest.mark.parametrize("name", sorted(MUTATORS))
def test_mutants_round_trip_and_validate(name):
    mutator = MUTATORS[name]
    produced = 0
    for seed in SEEDS:
        program = _program(seed)
        mutation = mutator(program, seed)
        if mutation is None:  # transform not applicable (e.g. no sections)
            continue
        produced += 1
        mutant = mutation.program
        reparsed = parse_program(pretty(mutant))
        assert structurally_equal(mutant, reparsed), f"{name} seed {seed}"
        validate_pfg(build_pfg(mutant))
    # Every transform must actually fire on a healthy share of programs
    # (reorder-sections needs a construct with no synchronization below
    # it, which the generator produces less often).
    floor = 15 if name == "reorder-sections" else 25
    assert produced >= floor, f"{name} produced only {produced}/50 mutants"


@pytest.mark.parametrize("name", sorted(MUTATORS))
def test_mutants_do_not_alias_the_original(name):
    mutator = MUTATORS[name]
    for seed in range(10):
        program = _program(seed)
        baseline = pretty(program)
        mutation = mutator(program, seed)
        if mutation is None:
            continue
        assert pretty(program) == baseline, f"{name} mutated its input"
        own = {id(s) for s in mutation.program.walk()}
        assert all(id(s) not in own for s in program.walk())


def test_stmt_map_covers_every_original_statement():
    for seed in range(10):
        program = _program(seed)
        for name in sorted(MUTATORS):
            mutation = MUTATORS[name](program, seed)
            if mutation is None:
                continue
            mutant_stmts = {id(s) for s in mutation.program.walk()}
            for stmt in program.walk():
                mapped = mutation.mapped(stmt)
                assert mapped is not None, f"{name}: unmapped {type(stmt).__name__}"
                assert id(mapped) in mutant_stmts


def test_rename_is_bijective_and_total():
    program = _program(3)
    mutation = MUTATORS["rename"](program, 3)
    assert mutation is not None
    vmap = mutation.var_map
    assert len(set(vmap.values())) == len(vmap)
    mutant_vars = set()
    for stmt in mutation.program.walk():
        if isinstance(stmt, ast.Assign):
            mutant_vars.add(stmt.target)
            mutant_vars.update(stmt.expr.variables())
        elif isinstance(stmt, (ast.If, ast.While)):
            mutant_vars.update(stmt.cond.variables())
    assert mutant_vars <= set(vmap.values())


def test_clone_program_is_deep_and_mapped():
    program = _program(0)
    clone, smap = clone_program(program)
    assert structurally_equal(program, clone)
    for stmt in program.walk():
        assert id(smap[id(stmt)]) != id(stmt)


def test_apply_mutators_is_deterministic():
    program = _program(7)
    a = apply_mutators(program, seed=7)
    b = apply_mutators(program, seed=7)
    assert [m.name for m in a] == [m.name for m in b]
    for ma, mb in zip(a, b):
        assert pretty(ma.program) == pretty(mb.program)


@pytest.mark.parametrize(
    "rhs", ["x" + " + 1" * 1199, "-" * 600 + "x"], ids=["long-sum", "deep-unary"]
)
def test_rename_variables_on_deep_expressions(rhs):
    # 1,200 terms and 600 unary minus signs: too deep for a recursive walk
    # at the default recursion limit under the test runner.
    program = parse_program(f"program deep\nx = 1\ny = {rhs}\nend")
    mutation = rename_variables(program, seed=3)
    x = mutation.mapped_var("x")
    assert x != "x"
    renamed = mutation.program.body[1].expr
    assert structurally_equal(renamed, parse_expression(rhs.replace("x", x)))
    assert str(renamed) == str(program.body[1].expr).replace("x", x)
