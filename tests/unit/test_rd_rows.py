"""The row store every reaching-definitions system shares
(:class:`~repro.reachdefs.system.RDSystem`): snapshots, kill states and
``state_key`` follow the class's ``slots``/``kill_slots`` in order, the
result's row fields are exactly the slot rows, and the systems without a
kill layer expose none of the stabilized solver's phase protocol, so
``solver="stabilized"`` runs them round-robin."""

import pytest

from repro.dataflow.bitset import BACKEND_NAMES
from repro.dataflow.solver import run_solver
from repro.lang import parse_program
from repro.paper import SOURCES
from repro.pfg import build_pfg
from repro.reachdefs import (
    ConservativeRDSystem,
    ParallelRDSystem,
    SequentialRDSystem,
    SynchRDSystem,
    resolve_preserved,
)
from repro.synthetic import par_diamond_loop

PROGRAMS = {
    **{name: lambda src=src: parse_program(src) for name, src in SOURCES.items()},
    "pdloop3x2": lambda: par_diamond_loop(3, 2),
}

SYSTEMS = {
    "sequential": SequentialRDSystem,
    "parallel": ParallelRDSystem,
    "synch": lambda graph, backend: SynchRDSystem(
        graph, preserved=resolve_preserved(graph), backend=backend
    ),
    "conservative": ConservativeRDSystem,
}

#: The ``ReachingDefsResult`` field each slot's rows fill.
RESULT_FIELDS = {
    "In": "in_sets",
    "Out": "out_sets",
    "ACCKillin": "acc_killin",
    "ACCKillout": "acc_killout",
    "ForkKill": "fork_kill",
    "SynchPass": "synch_pass",
}

#: The stabilized solver's flow/kill phase protocol (``run_solver`` and
#: the SCC scheduler probe for it).
PHASE_PROTOCOL = ("update_flow", "update_kill", "reset_flow_nodes", "reset_kill_nodes")


def solved(system_name, name, backend):
    graph = build_pfg(PROGRAMS[name]())
    system = SYSTEMS[system_name](graph, backend=backend)
    return system, run_solver(system, graph)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rows_follow_the_slots(name, system_name, backend):
    system, stats = solved(system_name, name, backend)
    nodes = system.graph.nodes
    assert list(system.rows) == list(system.slots)
    for slot in system.slots:
        assert getattr(system, slot) is system.rows[slot]
    assert list(system.snapshot()) == list(system.slots)
    assert len(system.state_key()) == len(system.slots) * len(nodes)
    if hasattr(system, "kill_slots"):
        assert list(system.kill_state()) == list(system.kill_slots)

    result = system.to_result(stats)
    decode = system.ops.to_frozenset
    for slot, field in RESULT_FIELDS.items():
        rows = getattr(result, field)
        if slot not in system.slots:
            assert rows is None, field
            continue
        masks = system.rows[slot]
        assert list(rows) == list(masks)
        assert all(rows[n] == decode(masks[n]) for n in nodes)
    assert result.system == system.system_name


@pytest.mark.parametrize("system_name", ["sequential", "conservative"])
def test_flat_systems_run_round_robin_under_stabilized(system_name):
    for attr in PHASE_PROTOCOL:
        assert not hasattr(SYSTEMS[system_name], attr), attr
    _, stats = solved(system_name, "fig3", "bitset")
    assert stats.converged
    assert not stats.order.startswith("stabilized/")
    assert stats.order == "document"


@pytest.mark.parametrize("system_name", ["parallel", "synch"])
def test_kill_layer_systems_run_stabilized(system_name):
    system, stats = solved(system_name, "fig3", "bitset")
    assert all(hasattr(system, attr) for attr in PHASE_PROTOCOL)
    assert stats.order.startswith("stabilized/")
