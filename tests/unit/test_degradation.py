"""Graceful-degradation ladder: sound fallbacks instead of failures."""

import pytest

from repro import obs, parse_program
from repro.driver import optimize
from repro.interp import RandomScheduler, run_program
from repro.interp.trace import check_soundness
from repro.paper import programs
from repro.pfg import EdgeKind, NodeKind, ParallelFlowGraph, build_pfg
from repro.reachdefs import solve_conservative, solve_synch
from repro.robust import (
    DegradationLevel,
    ResourceBudget,
    analyze_with_degradation,
)

SYNC = """program sync
  event ready
  (1) x = 1
  (2) parallel sections
    (3) section producer
      (3) data = x + 1
      (3) post(ready)
    (4) section consumer
      (4) wait(ready)
      (4) y = data
  (5) end parallel sections
  (5) z = y
end program
"""


def _assert_sound(result, program, seeds=range(5)):
    for seed in seeds:
        run = run_program(
            program, RandomScheduler(seed=seed, max_loop_iters=2), graph=result.graph
        )
        assert check_soundness(result, run) == []


# -- no degradation on healthy input --------------------------------------


def test_full_precision_returns_no_record():
    prog = parse_program(SYNC)
    result, record = analyze_with_degradation(prog)
    assert record is None
    assert result.system == "synch"
    # Identical to the undegraded analysis.
    direct = solve_synch(build_pfg(prog))
    assert {n.name: result.in_sets[n] for n in result.graph.nodes} == {
        n.name: direct.in_sets[n] for n in direct.graph.nodes
    }


# -- budget exhaustion → next rung, flagged, still sound ------------------


def test_budget_exhaustion_degrades_flagged_and_sound():
    prog = parse_program(SYNC)
    result, record = analyze_with_degradation(prog, budget=ResourceBudget(max_passes=1))
    assert record is not None
    assert record.level is DegradationLevel.CONSERVATIVE
    assert result.system == "conservative"
    assert "did not converge" in record.reason
    # The ladder tried full, then no-preserved, then fell to the floor.
    assert "full analysis did not converge" in record.reason
    assert "no-preserved analysis did not converge" in record.reason
    assert record.budget_spent["passes"] > 0
    # The fallback is still a sound over-approximation of every run.
    _assert_sound(result, prog)


def test_degradation_record_shape():
    prog = parse_program(SYNC)
    _, record = analyze_with_degradation(prog, budget=ResourceBudget(max_passes=1))
    d = record.as_dict()
    assert d["level"] == 2 and d["level_name"] == "conservative"
    assert d["reason"] == record.reason
    assert set(d["budget_spent"]) == {"seconds", "passes", "updates"}
    text = record.format()
    assert text.startswith("degraded to level 2 (conservative):")
    assert "passes" in text


def test_generous_budget_means_no_degradation():
    prog = parse_program(SYNC)
    result, record = analyze_with_degradation(prog, budget=ResourceBudget(max_passes=1000))
    assert record is None and result.system == "synch"


# -- blocking synchronization lint → Preserved machinery abandoned --------


def test_stale_event_program_degrades_to_no_preserved():
    """The paper's Figure 3 caveat: a stale posting can release a wait
    early, so the Preserved-set assumption does not hold — the ladder
    keeps the synchronized system but with empty Preserved sets."""
    prog = parse_program(programs.SOURCES["fig3"])
    result, record = analyze_with_degradation(prog)
    assert record is not None
    assert record.level is DegradationLevel.NO_PRESERVED
    assert "stale-event" in record.reason
    assert result.system == "synch"
    # Empty Preserved everywhere ⇒ no synchronization kill is ever claimed.
    assert result.preserved is not None
    assert all(not s for s in result.preserved.preserved.values())
    _assert_sound(result, prog)


def test_preserved_none_request_skips_the_lint_gate():
    # Explicitly asking for preserved="none" is already the no-preserved
    # analysis; the ladder must not stamp a degradation record for it.
    prog = parse_program(programs.SOURCES["fig3"])
    result, record = analyze_with_degradation(prog, preserved="none")
    assert record is None
    assert result.preserved is not None
    assert all(not s for s in result.preserved.preserved.values())


# -- malformed graph → conservative floor ---------------------------------


def _broken_graph():
    g = ParallelFlowGraph("broken")
    entry = g.new_node(NodeKind.ENTRY)
    exit_ = g.new_node(NodeKind.EXIT)
    g.add_edge(entry, exit_, EdgeKind.SEQ)
    g.entry, g.exit = entry, exit_
    for n in g.nodes:
        g.register_name(n)
    orphan = g.new_node(NodeKind.BASIC)
    g.register_name(orphan)
    g.finalize_defs()
    return g


def test_invalid_graph_goes_straight_to_conservative():
    result, record = analyze_with_degradation(_broken_graph())
    assert record is not None
    assert record.level is DegradationLevel.CONSERVATIVE
    assert "malformed graph" in record.reason
    assert result.system == "conservative"


# -- the conservative floor itself ----------------------------------------


@pytest.mark.parametrize("key", sorted(programs.SOURCES))
def test_conservative_floor_is_sound_on_paper_programs(key):
    prog = parse_program(programs.SOURCES[key])
    result = solve_conservative(build_pfg(prog))
    assert result.stats.converged
    _assert_sound(result, prog, seeds=range(3))


def test_conservative_is_superset_of_precise():
    prog = parse_program(SYNC)
    graph = build_pfg(prog)
    precise = solve_synch(graph)
    floor = solve_conservative(graph)
    for n in graph.nodes:
        assert precise.in_sets[n] <= floor.in_sets[n]


# -- provenance reaches the driver and observability ----------------------


def test_optimize_stamps_degradation_and_renders_it():
    report = optimize(SYNC, budget=ResourceBudget(max_passes=1))
    assert report.degradation is not None
    assert report.degradation.level is DegradationLevel.CONSERVATIVE
    rendered = report.render()
    assert "degradation: degraded to level 2 (conservative)" in rendered
    assert any("degraded" in note for note in report.notes)


def test_optimize_no_degrade_raises():
    from repro.robust import NonConvergenceError

    with pytest.raises(NonConvergenceError):
        optimize(SYNC, budget=ResourceBudget(max_passes=1), degrade=False)


def test_degradation_metrics_emitted():
    prog = parse_program(SYNC)
    with obs.session() as sess:
        analyze_with_degradation(prog, budget=ResourceBudget(max_passes=1))
    counters = sess.metrics.as_dict()["counters"]
    assert counters["driver.degradations"] == 1
    assert counters["driver.degradations.level2"] == 1


def test_preserved_none_budget_trip_solves_the_system_once():
    """With ``preserved="none"`` the full rung already *is* the
    no-preserved system: after it trips, the ladder goes straight to the
    floor instead of solving the identical system again."""
    prog = parse_program(programs.SOURCES["fig3"])
    _, record = analyze_with_degradation(
        prog, preserved="none", budget=ResourceBudget(max_passes=1)
    )
    assert record.level is DegradationLevel.CONSERVATIVE
    assert record.budget_spent["passes"] == 2
    assert "no-preserved" not in record.reason


def test_ladder_can_start_on_a_lower_rung():
    prog = parse_program(SYNC)
    result, record = analyze_with_degradation(
        prog, budget=ResourceBudget(max_passes=1000), start=DegradationLevel.NO_PRESERVED
    )
    assert record.level is DegradationLevel.NO_PRESERVED
    assert record.reason.startswith("admission degradation policy")
    assert record.budget_spent["passes"] > 0  # the rung's real spend
    assert all(not s for s in result.preserved.preserved.values())
    result, record = analyze_with_degradation(prog, start=DegradationLevel.CONSERVATIVE)
    assert record.level is DegradationLevel.CONSERVATIVE
    assert result.system == "conservative"
