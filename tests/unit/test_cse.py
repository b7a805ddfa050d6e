"""Common-subexpression elimination client tests."""

from repro import analyze
from repro.analysis import find_common_subexpressions
from repro.lang import parse_program


def cses(src):
    return find_common_subexpressions(analyze(parse_program(src)))


def test_simple_cse_found():
    found = cses("program p\n(1) a=1\n(1) b=2\n(2) x = a + b\n(3) y = a + b\nend")
    assert len(found) == 1
    c = found[0]
    assert c.earlier.name == "x2" and c.later.name == "y3"


def test_operand_redefined_blocks_cse():
    found = cses("program p\n(1) a=1\n(2) x = a + 1\n(3) a = 5\n(4) y = a + 1\nend")
    assert found == []


def test_target_redefined_blocks_reuse():
    found = cses("program p\n(1) a=1\n(2) x = a + 1\n(3) x = 0\n(4) y = a + 1\nend")
    assert found == []


def test_trivial_rhs_ignored():
    assert cses("program p\n(1) a=1\n(2) x = a\n(3) y = a\nend") == []


def test_cse_across_parallel_construct():
    # Section B recomputes what the pre-fork block computed.
    src = """program p
(1) a = 1
(2) x = a * 2
parallel sections
  section A
    (3) u = 7
  section B
    (4) y = a * 2
(5) end parallel sections
end"""
    found = cses(src)
    assert len(found) == 1
    assert found[0].earlier.name == "x2" and found[0].later.name == "y4"


def test_concurrent_computations_not_cse():
    src = """program p
(1) a = 1
parallel sections
  section A
    (2) x = a * 2
  section B
    (3) y = a * 2
end parallel sections
end"""
    # x and y compute the same value but run concurrently: no ordering,
    # no reuse.
    assert cses(src) == []


def test_free_variable_expressions_match():
    found = cses("program p\n(1) x = input + 1\n(2) y = input + 1\nend")
    assert len(found) == 1


def test_different_expressions_not_matched():
    assert cses("program p\n(1) a=1\n(2) x = a + 1\n(3) y = a + 2\nend") == []


def test_format():
    found = cses("program p\n(1) a=1\n(2) x = a + 1\n(3) y = a + 1\nend")
    assert "reuse x2" in found[0].format()


def test_expressions_deeper_than_the_stack():
    # Value keys are flat, so equal long sums hash and compare without
    # recursion; a sum differing in one term is not matched.
    total = "a" + " + 1" * 1200
    found = cses(f"program p\n(1) a=1\n(2) x = {total}\n(3) y = {total}\n(4) z = {total} + a\nend")
    assert [(c.earlier.name, c.later.name) for c in found] == [("x2", "y3")]
