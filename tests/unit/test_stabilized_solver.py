"""Stabilized-solver internals: phase behaviour and cycle resolution."""

from repro import obs
from repro.lang import parse_program
from repro.pfg import build_pfg
from repro.reachdefs import solve_parallel, solve_synch
from repro.reachdefs.preserved import compute_preserved
from repro.reachdefs.synch import SynchRDSystem
from repro.synthetic import par_diamond_loop

#: The period-2 oscillator distilled in tests/regression: loop around a
#: construct where the waiter redefines a variable that a concurrent
#: section also defines — with the SynchPass filter *disabled* the outer
#: rounds of the stabilized solver cycle, exercising the kill-intersection
#: resolution path.
OSCILLATOR = """program oscillator
event e
(1) v = 0
(2) loop
  clear(e)
  (3) parallel sections
    (4) section POSTER
      (4) post(e)
    (5) section WAITER
      (5) wait(e)
      (5) v = 1
    (6) section OTHER
      (6) v = 2
  (7) end parallel sections
(8) endloop
end"""


def test_cycle_resolution_engages_and_is_sound():
    graph = build_pfg(parse_program(OSCILLATOR))
    result = solve_synch(graph, solver="stabilized", filter_synch_pass=False)
    assert result.stats.converged
    assert "+cycle" in result.stats.order
    # Conservative resolution: both concurrent definitions reach the join
    # (the kill claim was only justified in half the cycle states).
    assert {d.name for d in result.reaching("7", "v")} >= {"v5", "v6"}


def test_cycle_resolution_not_needed_with_filter():
    graph = build_pfg(parse_program(OSCILLATOR))
    result = solve_synch(graph, solver="stabilized")
    assert result.stats.converged
    assert "+cycle" not in result.stats.order


def test_kill_state_roundtrip():
    graph = build_pfg(parse_program(OSCILLATOR))
    system = SynchRDSystem(graph, preserved=compute_preserved(graph))
    system.initialize()
    for node in graph.nodes:
        system.update(node)
    state = system.kill_state()
    assert set(state) == {"ACCKillin", "ACCKillout", "ForkKill", "SynchPass"}
    # meet with itself is identity; loading it back changes nothing
    met = {
        slot: {n: system.meet_values(v, v) for n, v in state[slot].items()}
        for slot in state
    }
    system.set_kill_state(met)
    for slot, values in state.items():
        for n, v in values.items():
            assert getattr(system, slot)[n] == v


def test_flow_and_kill_phase_partition_state():
    graph = build_pfg(parse_program(OSCILLATOR))
    system = SynchRDSystem(graph, preserved=compute_preserved(graph))
    system.initialize()
    nodes = graph.document_order()
    for _ in range(20):
        if not any(system.update_flow(n) for n in nodes):
            break
    flow_snapshot = {n: system.In[n] for n in nodes}
    # a kill sweep must not modify In/Out...
    for n in nodes:
        system.update_kill(n)
    assert all(system.In[n] == flow_snapshot[n] for n in nodes)
    # ...and reset_flow_nodes clears exactly the flow half
    killin_before = {n: system.ACCKillin[n] for n in nodes}
    system.reset_flow_nodes(nodes)
    assert all(system.In[n] == system.ops.empty() for n in nodes)
    assert all(system.ACCKillin[n] == killin_before[n] for n in nodes)


def test_every_round_ends_in_a_converge_span():
    graph = build_pfg(parse_program(OSCILLATOR))
    with obs.session() as sess:
        solve_synch(graph, solver="stabilized", filter_synch_pass=False)
    solve = sess.tracer.find("solve")
    rounds = [s for s in solve.children if s.name == "round"]
    assert len(rounds) >= 2  # the oscillator needs a cycle to settle
    for r in rounds:
        converge = r.children[-1]
        assert converge.name == "converge"
        assert converge.attrs["rows"] == 6 * len(graph.nodes)


def test_phases_report_cone_and_evaluated_updates():
    # Only the first flow and kill phases solve every node; later phases
    # reset the cone of the rows the previous phase changed, and the
    # settling round re-solves nothing in its flow phase.
    graph = build_pfg(par_diamond_loop(3, 3))
    with obs.session() as sess:
        result = solve_parallel(graph, solver="stabilized")
    solve = sess.tracer.find("solve")
    phases = [s for s, _ in solve.walk() if s.name == "phase"]
    assert [p.attrs["cone"] for p in phases[:2]] == [len(graph.nodes)] * 2
    assert sum(p.attrs["evaluated"] for p in phases) == result.stats.node_updates
    rounds = [s for s in solve.children if s.name == "round"]
    settling_flow = [p for p in rounds[-1].children if p.name == "phase"][-1]
    assert settling_flow.attrs == {"kind": "flow", "passes": 0, "cone": 0, "evaluated": 0}
