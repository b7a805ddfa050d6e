"""The ``state_key`` contract the stabilized solver's convergence check
rests on: equal keys iff equal snapshots, hashable, restrictable, and
computed without decoding a single row."""

import pytest

from repro.dataflow.bitset import BACKEND_NAMES, FrozensetBackend, IntBitsetBackend
from repro.dataflow.solver import make_order, solve_stabilized
from repro.lang import parse_program
from repro.paper import SOURCES
from repro.pfg import build_pfg
from repro.reachdefs import SynchRDSystem, resolve_preserved
from repro.robust import ChaosPlan, ChaosSystem

from ..regression.test_synch_oscillation import OSCILLATOR

SLOTS = ("In", "Out", "ACCKillin", "ACCKillout", "ForkKill", "SynchPass")


def synch_system(source, backend, **kwargs):
    graph = build_pfg(parse_program(SOURCES.get(source, source)))
    return SynchRDSystem(graph, preserved=resolve_preserved(graph), backend=backend, **kwargs)


def solved(backend):
    system = synch_system("fig3", backend)
    solve_stabilized(system, make_order(system.graph, "document"))
    return system


def changed_row(system, row):
    """A row that differs from ``row``: one definition toggled."""
    ops = system.ops
    first = system.graph.defs[0]
    decoded = ops.to_frozenset(row)
    return ops.from_defs(decoded - {first} if first in decoded else decoded | {first})


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("slot", SLOTS)
def test_one_changed_row_changes_key_and_snapshot(backend, slot):
    system = solved(backend)
    key, snap = system.state_key(), system.snapshot()
    rows = getattr(system, slot)
    node = system.graph.nodes[len(system.graph.nodes) // 2]
    original = rows[node]
    rows[node] = changed_row(system, original)
    assert system.state_key() != key
    assert system.snapshot() != snap
    rows[node] = original
    assert system.state_key() == key
    assert system.snapshot() == snap


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_equal_states_have_equal_hashable_keys(backend):
    a, b = solved(backend), solved(backend)
    assert a.state_key() == b.state_key()
    assert hash(a.state_key()) == hash(b.state_key())
    assert len({a.state_key(), b.state_key()}) == 1


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_nodes_restricts_the_key(backend):
    system = solved(backend)
    nodes = system.graph.nodes
    subset = nodes[:3]
    assert len(system.state_key()) == len(SLOTS) * len(nodes)
    assert len(system.state_key(nodes=subset)) == len(SLOTS) * len(subset)
    key = system.state_key(nodes=subset)
    outside = nodes[-1]
    system.In[outside] = changed_row(system, system.In[outside])
    assert system.state_key(nodes=subset) == key
    assert system.state_key() != solved(backend).state_key()


def test_key_passes_through_chaos_system():
    system = solved("bitset")
    wrapped = ChaosSystem(system, ChaosPlan(seed=0))
    assert wrapped.state_key() == system.state_key()
    subset = system.graph.nodes[:2]
    assert wrapped.state_key(nodes=subset) == system.state_key(nodes=subset)


@pytest.mark.parametrize("source, cycle", [("fig3", False), ("fig9", False), (OSCILLATOR, True)])
def test_converging_solve_decodes_nothing(source, cycle, monkeypatch):
    calls = []
    for cls in (IntBitsetBackend, FrozensetBackend):
        real = cls.to_frozenset
        monkeypatch.setattr(
            cls, "to_frozenset", lambda self, s, real=real: calls.append(1) or real(self, s)
        )
    for backend in BACKEND_NAMES:
        system = synch_system(source, backend, filter_synch_pass=not cycle)
        stats = solve_stabilized(system, make_order(system.graph, "document"))
        assert stats.converged and stats.order.endswith("+cycle") == cycle
    assert calls == []
    system.snapshot()
    assert calls  # the counting decoder is live
