"""ResourceBudget semantics and typed non-convergence across the solvers."""

import pytest

from repro import analyze, parse_program
from repro.dataflow import (
    BudgetExceeded,
    NonConvergenceError,
    ResourceBudget,
    check_budget,
)
from repro.dataflow.framework import FixpointDiverged, SolveStats
from repro.dataflow.solver import make_order, solve_stabilized
from repro.pfg import build_pfg
from repro.reachdefs import (
    SynchRDSystem,
    compute_preserved,
    solve_parallel,
    solve_sequential,
    solve_synch,
)

SEQ = """program seq
  (1) x = 1
  (2) if x then
    (3) x = 2
  else
    (4) y = x
  endif
  (5) z = x + y
end program
"""

PAR = """program par
(1) x = 1
(2) parallel sections
  (3) section a
    (3) x = 2
  (4) section b
    (4) y = x
(5) end parallel sections
(5) z = y
end
"""

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


# -- ResourceBudget mechanics (fake clock, no solver involved) ------------


def test_empty_budget_never_trips():
    b = ResourceBudget()
    b.start()
    b.charge_pass(100)
    b.charge_updates(10_000)
    assert b.exceeded() is None


def test_pass_budget_allows_exactly_max_passes():
    b = ResourceBudget(max_passes=3)
    for _ in range(3):
        b.charge_pass()
        assert b.exceeded() is None
    b.charge_pass()
    assert "pass budget 3 exceeded" in b.exceeded()


def test_update_budget_message():
    b = ResourceBudget(max_updates=5)
    b.charge_updates(6)
    assert "update budget 5 exceeded (6 updates)" in b.exceeded()


def test_deadline_uses_injected_clock():
    t = [0.0]
    b = ResourceBudget(deadline_s=1.0, clock=lambda: t[0])
    b.start()
    assert b.exceeded() is None
    t[0] = 0.9
    assert b.exceeded() is None
    t[0] = 1.5
    assert "deadline 1.0s exceeded" in b.exceeded()
    assert b.elapsed() == pytest.approx(1.5)


def test_deadline_not_armed_until_start():
    t = [100.0]
    b = ResourceBudget(deadline_s=0.5, clock=lambda: t[0])
    # Not started: no deadline check, elapsed is zero.
    assert b.exceeded() is None
    assert b.elapsed() == 0.0
    b.start()
    t[0] = 100.4
    assert b.exceeded() is None
    # start() is idempotent — re-arming must not reset the origin.
    b.start()
    t[0] = 100.6
    assert b.exceeded() is not None


def test_negative_deadline_rejected():
    with pytest.raises(ValueError):
        ResourceBudget(deadline_s=-1)


def test_nan_deadline_rejected():
    # NaN compares false with everything, so it would never fire.
    with pytest.raises(ValueError, match="deadline_s"):
        ResourceBudget(deadline_s=float("nan"))


def test_spent_and_fresh():
    t = [0.0]
    b = ResourceBudget(deadline_s=9.0, max_passes=7, max_updates=11, clock=lambda: t[0])
    b.start()
    b.charge_pass(2)
    b.charge_updates(30)
    t[0] = 0.25
    assert b.spent() == {"seconds": 0.25, "passes": 2, "updates": 30}
    f = b.fresh()
    assert f.spent() == {"seconds": 0.0, "passes": 0, "updates": 0}
    assert (f.deadline_s, f.max_passes, f.max_updates) == (9.0, 7, 11)
    assert "deadline=9.0s" in b.describe() and "max_passes=7" in b.describe()
    assert ResourceBudget().describe() == "unbounded"


def test_check_budget_raises_budget_exceeded_with_snapshot():
    class Sys:
        def snapshot(self):
            return {"In": {}}

    b = ResourceBudget(max_passes=0)
    b.charge_pass()
    with pytest.raises(BudgetExceeded) as exc:
        check_budget(b, SolveStats(passes=1), Sys())
    err = exc.value
    assert err.snapshot == {"In": {}}
    assert "pass budget 0 exceeded" in err.reason
    # check_budget is a no-op without a budget or below the limits.
    check_budget(None, SolveStats(), Sys())
    check_budget(ResourceBudget(max_passes=5), SolveStats(), None)


# -- typed error shape ----------------------------------------------------


def test_nonconvergence_error_fields_and_compat():
    err = NonConvergenceError(
        SolveStats(passes=4, node_updates=32), reason="why", snapshot={"x": 1}
    )
    assert isinstance(err, FixpointDiverged)  # legacy handlers keep working
    assert isinstance(err, RuntimeError)
    assert err.reason == "why"
    assert err.snapshot == {"x": 1}
    assert err.stats.passes == 4
    assert "no fixpoint after 4 passes (32 updates): why" in str(err)


# -- budgets are honoured by every solver entry point ---------------------


@pytest.mark.parametrize(
    "source,solve,kwargs,limits",
    [
        (SEQ, solve_sequential, {"solver": "round-robin"}, {"max_passes": 1}),
        # The worklist has no sweeps; its budget unit is the node update.
        (SEQ, solve_sequential, {"solver": "worklist"}, {"max_updates": 2}),
        (PAR, solve_parallel, {"solver": "stabilized"}, {"max_passes": 1}),
        (SYNC, solve_synch, {"solver": "stabilized"}, {"max_passes": 1}),
    ],
)
def test_solvers_raise_on_exhausted_budget(source, solve, kwargs, limits):
    graph = build_pfg(parse_program(source))
    with pytest.raises(NonConvergenceError) as exc:
        solve(graph, budget=ResourceBudget(**limits), **kwargs)
    err = exc.value
    assert not err.stats.converged
    assert "budget" in err.reason
    assert err.snapshot is not None


def test_worklist_update_budget():
    graph = build_pfg(parse_program(SEQ))
    with pytest.raises(NonConvergenceError) as exc:
        solve_sequential(graph, solver="worklist", budget=ResourceBudget(max_updates=2))
    assert "update budget 2 exceeded" in exc.value.reason


def test_stabilized_update_budget_counts_evaluated_nodes():
    # The stabilized phases sweep only dirty nodes and charge what they
    # evaluated, not a full sweep per pass.
    graph = build_pfg(parse_program(SYNC))
    preserved = compute_preserved(graph)

    def solve(budget):
        system = SynchRDSystem(graph, preserved=preserved)
        return solve_stabilized(system, make_order(graph, "document"), budget=budget)

    stats = solve(None)
    evaluated = stats.node_updates
    assert evaluated < stats.passes * len(graph.nodes)
    budget = ResourceBudget(max_updates=evaluated)
    assert solve(budget).converged
    assert budget.updates == evaluated
    with pytest.raises(BudgetExceeded) as exc:
        solve(ResourceBudget(max_updates=evaluated - 1))
    assert f"update budget {evaluated - 1} exceeded ({evaluated} updates)" in exc.value.reason


def test_analyze_threads_budget_through():
    with pytest.raises(NonConvergenceError):
        analyze(parse_program(SYNC), budget=ResourceBudget(max_passes=1))
    # A generous budget changes nothing.
    result = analyze(parse_program(SYNC), budget=ResourceBudget(max_passes=1000))
    assert result.stats.converged


def test_budget_accumulates_across_stages():
    """One budget bounds the whole synchronized analysis, Preserved
    computation included — stages draw from a single allowance."""
    graph = build_pfg(parse_program(SYNC))
    budget = ResourceBudget(max_passes=1000)
    solve_synch(graph, budget=budget)
    assert budget.passes > 0
    assert budget.updates > 0


# -- compute_preserved: typed error instead of bare RuntimeError ----------


def test_compute_preserved_pass_cap_is_typed():
    graph = build_pfg(parse_program(SYNC))
    with pytest.raises(NonConvergenceError) as exc:
        compute_preserved(graph, max_passes=0)
    err = exc.value
    assert "preserved-set pass cap" in err.reason
    assert "Preserved" in err.snapshot
    assert not err.stats.converged


def test_compute_preserved_budget():
    graph = build_pfg(parse_program(SYNC))
    with pytest.raises(BudgetExceeded):
        compute_preserved(graph, budget=ResourceBudget(max_passes=0))
    # And converges untouched under a generous one.
    res = compute_preserved(graph, budget=ResourceBudget(max_passes=100))
    assert res.preserved
