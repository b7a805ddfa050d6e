"""Set-backend unit tests (both backends, same behaviours).

A backend only encodes and decodes; the equations apply the set algebra
with the operators ints and frozensets share (``|``, ``&``, ``^``,
``==``), so these tests check those idioms on encoded values, and the
empty-family conventions where the equations apply them.
"""

import pytest

from repro.dataflow.bitset import BACKENDS, make_backend
from repro.ir.defs import DefTable
from repro.paper import program
from repro.pfg import build_pfg
from repro.reachdefs import ParallelRDSystem


@pytest.fixture
def universe():
    t = DefTable()
    for i in range(130):  # spans multiple uint64 words
        t.add(f"v{i % 7}", str(i))
    return list(t)


@pytest.fixture(params=sorted(BACKENDS))
def ops(request, universe):
    return make_backend(request.param, universe)


def test_empty_roundtrip(ops):
    assert ops.to_frozenset(ops.empty()) == frozenset()
    assert ops.size(ops.empty()) == 0


def test_from_defs_roundtrip(ops, universe):
    chosen = frozenset(universe[::13])
    assert ops.to_frozenset(ops.from_defs(chosen)) == chosen


def test_union(ops, universe):
    a = ops.from_defs(universe[:50])
    b = ops.from_defs(universe[30:90])
    assert ops.to_frozenset(a | b) == frozenset(universe[:90])


def test_intersection(ops, universe):
    a = ops.from_defs(universe[:50])
    b = ops.from_defs(universe[30:90])
    assert ops.to_frozenset(a & b) == frozenset(universe[30:50])


def test_difference(ops, universe):
    # a − b is written (a | b) ^ b, and U − x as U ^ (U & x)
    a = ops.from_defs(universe[:50])
    b = ops.from_defs(universe[30:90])
    assert ops.to_frozenset((a | b) ^ b) == frozenset(universe[:30])
    full = ops.from_defs(universe)
    assert ops.to_frozenset(full ^ (full & b)) == frozenset(universe[:30] + universe[90:])


def test_equals(ops, universe):
    a = ops.from_defs(universe[:10])
    b = ops.from_defs(reversed(universe[:10]))
    assert a == b
    assert a != ops.empty()


def _system(ops):
    """Fig 1a's §5 system on ``ops``'s backend, every row the universe."""
    graph = build_pfg(program("fig1a"))
    system = ParallelRDSystem(graph, backend=ops.name)
    system.initialize()
    full = system.ops.from_defs(graph.defs)
    for slot in (system.Out, system.ACCKillout):
        for n in graph.nodes:
            slot[n] = full
    return system, graph


def test_union_all_empty_family(ops):
    # ⋃ over no predecessors is ∅: the entry's In stays empty although
    # every other Out row holds the whole universe.
    system, graph = _system(ops)
    system.update_flow(graph.entry)
    assert system.In[graph.entry] == system.ops.empty()


def test_intersection_all_empty_family_is_empty(ops):
    # DESIGN.md §2: empty intersection convention — the entry has no
    # sequential predecessors, so its ACCKillin is ∅, not the universe.
    system, graph = _system(ops)
    system.update_kill(graph.entry)
    assert system.ACCKillin[graph.entry] == system.ops.empty()


def test_intersection_all_multi(ops):
    # The if/else merge (block 6) meets the ACCKillout of both arms.
    system, graph = _system(ops)
    defs = graph.defs
    arm4, arm5, merge = graph.node("4"), graph.node("5"), graph.node("6")
    system.ACCKillout[arm4] = system.ops.from_defs(defs[:3])
    system.ACCKillout[arm5] = system.ops.from_defs(defs[1:])
    system.update_kill(merge)
    assert system.ops.to_frozenset(system.ACCKillin[merge]) == frozenset(defs[1:3])


def test_size(ops, universe):
    assert ops.size(ops.from_defs(universe[:37])) == 37


def test_operations_do_not_mutate(ops, universe):
    a = ops.from_defs(universe[:10])
    b = ops.from_defs(universe[5:15])
    before = ops.to_frozenset(a)
    union, difference, meet = a | b, (a | b) ^ b, a & b
    assert ops.to_frozenset(a) == before
    assert (ops.size(union), ops.size(difference), ops.size(meet)) == (15, 5, 5)


def test_last_bit_of_universe(ops, universe):
    last = universe[-1]
    s = ops.from_defs([last])
    assert ops.to_frozenset(s) == frozenset([last])


def test_unknown_backend_rejected(universe):
    with pytest.raises(ValueError, match="unknown set backend"):
        make_backend("nope", universe)


def test_backend_names():
    assert set(BACKENDS) == {"set", "bitset"}
