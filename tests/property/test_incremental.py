"""Property: incremental re-analysis (repro.incremental) is byte-identical
to a from-scratch solve — on generated multi-step edit chains, on every
paper figure, and on targeted edits inside loops and Parallel Sections —
and actually reuses regions on local edits (anti-vacuity)."""

import pytest
from hypothesis import given, settings

from repro import analyze
from repro.fuzz.mutate import random_edit_script
from repro.incremental import IncrementalBase, incremental_analyze
from repro.lang import ast, parse_program
from repro.paper import programs
from repro.synthetic import workloads

from .conftest import generated_programs

SLOT_ATTRS = {
    "In": "in_sets",
    "Out": "out_sets",
    "ACCKillin": "acc_killin",
    "ACCKillout": "acc_killout",
    "ForkKill": "fork_kill",
    "SynchPass": "synch_pass",
}


def _sets(result):
    """Every computed set keyed by (slot, node name) — comparable across
    separately built graphs of the same program."""
    out = {}
    for slot, attr in SLOT_ATTRS.items():
        values = getattr(result, attr, None)
        if values is None:
            continue
        for node, value in values.items():
            out[(slot, node.name)] = frozenset(d.name for d in value)
    return out


def assert_identical(program, outcome):
    scratch = analyze(program, solver="scc", cache=False)
    assert _sets(scratch) == _sets(outcome.result)


def chain_check(program, edited_versions, solver="scc"):
    """Re-solve each version incrementally off the previous result and
    compare every step against a from-scratch solve."""
    base = IncrementalBase.from_result(
        program, analyze(program, solver=solver, cache=False)
    )
    outcomes = []
    for version in edited_versions:
        outcome = incremental_analyze(
            base, version, solver=solver, verify=True, cache=False
        )
        assert_identical(version, outcome)
        outcomes.append(outcome)
        base = outcome.to_base(version)
    return outcomes


@settings(max_examples=20, deadline=None)
@given(program=generated_programs())
def test_edit_chains_generated(program):
    """5-step edit chains on generated (possibly synchronized) programs:
    every step byte-identical, fallbacks included."""
    versions = []
    current = program
    for step in range(5):
        edit = random_edit_script(current, seed=step, n_edits=1)
        if edit is None:
            break
        versions.append(edit.program)
        current = edit.program
    if versions:
        chain_check(program, versions)


@pytest.mark.parametrize("key", sorted(programs.SOURCES))
def test_edit_chains_paper_figures(key):
    """Every paper figure survives a 5-edit incremental chain; the
    synchronized figures must take the (still byte-identical) sync
    fallback on every step."""
    program = programs.program(key)
    uses_sync = any(isinstance(s, (ast.Post, ast.Wait)) for s in program.walk())
    versions = []
    current = program
    for step in range(5):
        edit = random_edit_script(current, seed=100 + step, n_edits=1)
        assert edit is not None
        versions.append(edit.program)
        current = edit.program
    outcomes = chain_check(program, versions)
    if uses_sync:
        assert all(o.fallback == "sync" for o in outcomes)


def test_edit_inside_loop():
    program = workloads.diamond_loop(12)
    v2 = workloads.diamond_loop(12)
    v2.body[1].body[7].else_body[0] = ast.Assign(target="y7", expr=ast.IntLit(-3))
    (outcome,) = chain_check(program, [v2])
    assert outcome.fallback is None
    assert outcome.regions_reused >= 1  # entry chain outside the loop SCC


def test_edit_inside_parallel_sections():
    program = workloads.wide_parallel(6, 4)
    v2 = workloads.wide_parallel(6, 4)
    old = v2.body[-1].sections[2].body[1]
    v2.body[-1].sections[2].body[1] = ast.Assign(target=old.target, expr=ast.IntLit(41))
    (outcome,) = chain_check(program, [v2])
    assert outcome.fallback is None
    assert outcome.regions_reused >= 1


def test_edit_adds_variable():
    """Inserting a definition of an entirely new variable: nothing else
    kills it, so untouched regions upstream stay reusable."""
    program = workloads.diamond_chain(10)
    v2 = workloads.diamond_chain(10)
    v2.body.append(ast.Assign(target="brand_new", expr=ast.IntLit(1)))
    (outcome,) = chain_check(program, [v2])
    assert outcome.fallback is None
    assert outcome.regions_reused >= 1


def test_edit_removes_variable():
    """Deleting a variable's only definition removes it from the def
    universe; results must still match from-scratch exactly."""
    src = """
program shrink
  x = 1
  only = 2
  if x < 1 then
    x = 2
  else
    x = x + 1
  endif
  y = x
end program
"""
    program = parse_program(src)
    v2 = parse_program(src)
    del v2.body[1]
    chain_check(program, [v2])


def test_antivacuity_local_edit_reuses_most_regions():
    """A 1-statement edit near the end of a long acyclic chain must reuse
    (not merely tolerate) the upstream regions — the guard that the
    dirty-cone computation is not trivially marking everything dirty."""
    program = workloads.diamond_chain(40)
    v2 = workloads.diamond_chain(40)
    v2.body[-1].then_body[0] = ast.Assign(target="x", expr=ast.IntLit(123))
    (outcome,) = chain_check(program, [v2])
    assert outcome.fallback is None
    total = outcome.regions_reused + outcome.regions_solved
    assert outcome.regions_reused > total // 2


@pytest.mark.parametrize("solver", ["stabilized", "scc"])
def test_solver_independence(solver):
    """The incremental answer matches a from-scratch solve under every
    deterministic solver (reuse itself always runs the scc machinery)."""
    program = workloads.wide_parallel(5, 3)
    v2 = workloads.wide_parallel(5, 3)
    old = v2.body[-1].sections[4].body[0]
    v2.body[-1].sections[4].body[0] = ast.Assign(target=old.target, expr=ast.IntLit(9))
    base = IncrementalBase.from_result(
        program, analyze(program, solver=solver, cache=False)
    )
    outcome = incremental_analyze(
        base, v2, solver=solver, verify=True, cache=False
    )
    scratch = analyze(v2, solver=solver, cache=False)
    assert _sets(scratch) == _sets(outcome.result)
