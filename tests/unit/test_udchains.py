"""UDChains wrapper tests."""

from dataclasses import fields

from repro import analyze
from repro.analysis import (
    compute_ud_chains,
    find_common_subexpressions,
    find_copy_propagations,
    find_dead_code,
    propagate_constants,
)
from repro.driver import Outcome, optimize
from repro.ir.defs import Use
from repro.lang import parse_program
from repro.paper import programs
from repro.synthetic import workloads


def chains(src):
    return compute_ud_chains(analyze(parse_program(src)))


SRC = """program p
(1) x = 1
(2) if x < 2 then
(3) x = 3
endif
(4) y = x
(5) dead = 7
end"""


def test_unused_defs():
    c = chains(SRC)
    # y4 and dead5 reach the exit (observable) but have no in-program uses.
    assert {d.name for d in c.unused_defs()} == {"y4", "dead5"}


def test_multi_def_uses():
    c = chains(SRC)
    multi = dict(c.multi_def_uses())
    (use,) = [u for u in multi if u.site == "4"]
    assert {d.name for d in multi[use]} == {"x1", "x3"}


def test_singleton_uses():
    c = chains(SRC)
    singles = dict(c.singleton_uses())
    cond_use = [u for u in singles if u.site == "2"][0]
    assert singles[cond_use].name == "x1"


def test_defs_for_and_uses_of_agree():
    c = chains(SRC)
    for use, defs in c.ud.items():
        for d in defs:
            assert use in c.uses_of(d)
        assert c.defs_for(use) == defs


def test_format_lists_uses():
    text = chains(SRC).format()
    assert "x@4#0" in text
    assert "{x1, x3}" in text


def test_uninitialized_read_formatted():
    text = chains("program p\n(1) y = q\nend").format()
    assert "uninitialized" in text


# -- the one-pass ud computation and the shared chains ------------------------


def _corpus():
    for key in programs.SOURCES:
        yield programs.program(key)
    yield workloads.diamond_chain(12)
    yield workloads.par_loop_chain(4, 5)
    yield workloads.par_diamond_loop(5, 4)
    yield workloads.fig3_repeated(4)
    yield workloads.sync_pipeline(6)
    yield workloads.pardo_grid(3, 4)
    for seed in range(12):
        yield workloads.random_mix(seed, 80)


SHADOW = """program p
(1) x = 1
(1) y = x
(1) x = y + x
(1) z = x
(1) x = z
(1) if x < z then
(3) y = x
endif
(4) w = x + y
end"""


def test_one_pass_ud_chains_match_per_use_queries():
    for program in [parse_program(SHADOW), *_corpus()]:
        result = analyze(program)
        ud = result.ud_chains()
        expected = [u for node in result.graph.nodes for u in node.uses()]
        assert list(ud) == expected, program.name
        for use in expected:
            assert ud[use] == result.reaching_use(use), (program.name, use.name)


def test_intra_block_shadowing_and_condition_uses():
    result = analyze(parse_program(SHADOW))
    ud = result.ud_chains()
    block = result.graph.node("1")
    x_first, x_second, x_last = block.defs_of("x")
    (y1,) = block.defs_of("y")
    (z1,) = block.defs_of("z")

    def reaching(var, site, ordinal):
        return ud[Use(var=var, site=site, ordinal=ordinal)]

    assert reaching("x", "1", 1) == {x_first}  # y = x
    assert reaching("x", "1", 2) == {x_first} and reaching("y", "1", 2) == {y1}
    assert reaching("x", "1", 3) == {x_second}  # z = x
    assert reaching("z", "1", 4) == {z1}
    # The branch condition reads at ordinal len(stmts), after every body
    # statement, so the block's last definition of x shadows the inflow.
    assert reaching("x", "1", len(block.stmts)) == {x_last}
    assert reaching("z", "1", len(block.stmts)) == {z1}
    assert reaching("x", "4", 0) == {x_last}
    assert {d.name for d in reaching("y", "4", 0)} == {"y1", "y3"}


def test_du_chains_invert_a_given_ud_map():
    for program in _corpus():
        result = analyze(program)
        assert result.du_chains(result.ud_chains()) == result.du_chains(), program.name


def test_reaching_use_answers_positions_no_statement_reads():
    c = chains(SRC)
    unread = Use(var="y", site="4", ordinal=0)  # (4) y = x reads only x
    assert unread not in c.ud
    assert c.reaching_use(unread) == c.result.reaching_use(unread) == frozenset()
    read = Use(var="x", site="4", ordinal=0)
    assert c.reaching_use(read) is c.ud[read]


def test_standalone_clients_match_the_shared_chains_report():
    for program in _corpus():
        report = optimize(program)
        result = report.result
        standalone = compute_ud_chains(result)
        assert standalone.ud == report.chains.ud and standalone.du == report.chains.du
        assert list(standalone.du) == list(report.chains.du)
        assert propagate_constants(result).values == report.constants.values, program.name
        assert find_dead_code(result) == report.dead_code, program.name
        assert find_copy_propagations(result) == report.copies, program.name
        assert find_common_subexpressions(result) == report.subexpressions, program.name


def test_report_leaves_nothing_on_the_result():
    program = workloads.diamond_chain(6)
    result = analyze(program, cache=False)
    before = set(vars(result))
    Outcome(program=program, result=result).report  # runs every client
    assert set(vars(result)) == before == {f.name for f in fields(result)}
