"""Constant-propagation client tests."""

from repro import analyze, obs
from repro.analysis.constprop import UNDEF, VARYING, _apply_binop, meet, propagate_constants
from repro.ir.defs import Use
from repro.lang import ast, parse_program
from repro.paper import programs
from repro.synthetic import workloads


def run(src):
    result = analyze(parse_program(src))
    return result, propagate_constants(result)


def test_meet_lattice():
    assert meet(UNDEF, 3) == 3
    assert meet(3, UNDEF) == 3
    assert meet(3, 3) == 3
    assert meet(3, 4) is VARYING
    assert meet(VARYING, 3) is VARYING
    assert meet(True, 1) is VARYING  # bool vs int differ
    assert meet(UNDEF, UNDEF) is UNDEF


def test_straightline_constants():
    _, cp = run("program p\n(1) x = 2\n(2) y = x * 3\n(3) z = y + x\nend")
    defs = cp.result.graph.defs
    assert cp.value_of(defs.by_name("x1")) == 2
    assert cp.value_of(defs.by_name("y2")) == 6
    assert cp.value_of(defs.by_name("z3")) == 8


def test_branch_joins_to_varying():
    _, cp = run("program p\n(1) x=1\nif c then\n(2) x=2\nendif\n(3) y=x\nend")
    assert cp.value_at("3", "x") is VARYING
    assert cp.constant_at("3", "x") is None


def test_equal_branches_stay_constant():
    _, cp = run("program p\nif c then\n(1) x=5\nelse\n(2) x=5\nendif\n(3) y=x\nend")
    assert cp.constant_at("3", "x") == 5


def test_free_variable_is_varying():
    _, cp = run("program p\n(1) x = input + 1\nend")
    assert cp.value_of(cp.result.graph.defs.by_name("x1")) is VARYING


def test_paper_fig1b_k_is_5_after_construct():
    # §1: "the variable k has the value 5 at the end of the parallel
    # construct during each iteration" — requires the parallel equations.
    r = analyze(programs.program("fig1b"))
    cp = propagate_constants(r)
    assert cp.constant_at("6", "k") == 5


def test_paper_fig1a_k_not_constant():
    r = analyze(programs.program("fig1a"))
    cp = propagate_constants(r)
    assert cp.constant_at("6", "k") is None


def test_constants_through_parallel_sections():
    src = """program p
(1) x = 10
parallel sections
  section A
    (2) a = x * 2
  section B
    (3) b = x + 1
(4) end parallel sections
(4) y = a + b
end"""
    _, cp = run(src)
    assert cp.constant_at("4", "a") == 20
    assert cp.constant_at("4", "b") == 11
    assert cp.value_of(cp.result.graph.defs.by_name("y4")) == 31


def test_division_by_zero_is_varying():
    _, cp = run("program p\n(1) x = 0\n(2) y = 4 / x\nend")
    assert cp.value_of(cp.result.graph.defs.by_name("y2")) is VARYING


def test_boolean_operators():
    _, cp = run("program p\n(1) t = 1 < 2\n(2) u = t and true\nend")
    assert cp.value_of(cp.result.graph.defs.by_name("u2")) is True


def test_unary_operators():
    _, cp = run("program p\n(1) x = -3\n(2) y = not (1 < 0)\nend")
    assert cp.value_of(cp.result.graph.defs.by_name("x1")) == -3
    assert cp.value_of(cp.result.graph.defs.by_name("y2")) is True


def test_loop_increment_becomes_varying():
    _, cp = run("program p\n(1) x = 0\nloop\n(2) x = x + 1\nendloop\n(3) y = x\nend")
    assert cp.value_at("3", "x") is VARYING


def test_constant_defs_listing():
    _, cp = run("program p\n(1) x = 2\n(2) y = x + c\nend")
    consts = cp.constant_defs()
    assert {d.name: v for d, v in consts.items()} == {"x2" if False else "x1": 2}


def test_value_at_unreached_var_is_undef():
    _, cp = run("program p\n(1) x = 1\nend")
    assert cp.value_at("1", "nothere") is UNDEF


# -- worklist cost and order independence -------------------------------------


def _counted(program):
    result = analyze(program)
    with obs.session() as sess:
        cp = propagate_constants(result)
    counters = sess.metrics.as_dict()["counters"]
    return cp, counters["client.constprop.evals"], counters["client.constprop.defs"]


def test_acyclic_program_evaluates_each_definition_once():
    for n in (20, 80):
        cp, evals, defs = _counted(workloads.diamond_chain(n))
        assert defs == len(cp.result.graph.defs) == 2 * n + 1
        assert evals == defs


def test_cyclic_and_sync_programs_stay_within_twice_the_definitions():
    for program in (
        workloads.par_loop_chain(8, 10),
        workloads.par_diamond_loop(6, 5),
        workloads.fig3_repeated(12),
        workloads.sync_pipeline(24),
    ):
        _, evals, defs = _counted(program)
        assert defs <= evals <= 2 * defs, program.name


def _same(a, b):
    return type(a) is type(b) and a == b  # 1 and True differ


def _reference_values(result):
    """Naive fixpoint: re-evaluate every definition in index order, reading
    each variable through ``reaching_use``, until nothing changes."""

    def evaluate(expr, site, ordinal, values):
        if isinstance(expr, (ast.IntLit, ast.BoolLit)):
            return expr.value
        if isinstance(expr, ast.Var):
            reaching = result.reaching_use(Use(var=expr.name, site=site, ordinal=ordinal))
            if not reaching:
                return VARYING
            acc = UNDEF
            for d in reaching:
                acc = meet(acc, values[d])
            return acc
        if isinstance(expr, ast.UnaryOp):
            inner = evaluate(expr.operand, site, ordinal, values)
            if inner is UNDEF or inner is VARYING:
                return inner
            return (not inner) if expr.op == "not" else -inner
        left = evaluate(expr.left, site, ordinal, values)
        right = evaluate(expr.right, site, ordinal, values)
        if left is UNDEF or right is UNDEF:
            return UNDEF
        if left is VARYING or right is VARYING:
            return VARYING
        return _apply_binop(expr.op, left, right)

    values = {d: UNDEF for d in result.graph.defs}
    changed = True
    while changed:
        changed = False
        for d in result.graph.defs:
            ordinal = result.graph.node(d.site).stmts.index(d.stmt)
            new = evaluate(d.stmt.expr, d.site, ordinal, values)
            if not _same(new, values[d]):
                values[d] = new
                changed = True
    return values


def _reference_corpus():
    for key in programs.SOURCES:
        yield programs.program(key)
    yield workloads.par_loop_chain(4, 5)
    yield workloads.par_diamond_loop(5, 4)
    yield workloads.fig3_repeated(4)
    for seed in range(20):
        yield workloads.random_mix(seed, 80)


def test_worklist_reaches_the_naive_fixpoint():
    for program in _reference_corpus():
        result = analyze(program)
        got = propagate_constants(result).values
        want = _reference_values(result)
        assert list(got) == list(want), program.name
        for d in want:
            assert _same(got[d], want[d]), (program.name, d.name, got[d], want[d])
