"""Set-backend unit tests (all three backends, same behaviours)."""

import pytest

from repro.dataflow.bitset import BACKENDS, make_backend
from repro.ir.defs import DefTable


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
    assert ops.to_frozenset(ops.union(a, b)) == frozenset(universe[:90])


def test_intersection(ops, universe):
    a = ops.from_defs(universe[:50])
    b = ops.from_defs(universe[30:90])
    assert ops.to_frozenset(ops.intersection(a, b)) == frozenset(universe[30:50])


def test_difference(ops, universe):
    a = ops.from_defs(universe[:50])
    b = ops.from_defs(universe[30:90])
    assert ops.to_frozenset(ops.difference(a, b)) == frozenset(universe[:30])


def test_equals(ops, universe):
    a = ops.from_defs(universe[:10])
    b = ops.from_defs(reversed(universe[:10]))
    assert ops.equals(a, b)
    assert not ops.equals(a, ops.empty())


def test_union_all_empty_family(ops):
    assert ops.to_frozenset(ops.union_all([])) == frozenset()


def test_intersection_all_empty_family_is_empty(ops):
    # DESIGN.md §2: empty intersection convention.
    assert ops.to_frozenset(ops.intersection_all([])) == frozenset()


def test_intersection_all_multi(ops, universe):
    fam = [ops.from_defs(universe[i : i + 60]) for i in (0, 20, 40)]
    assert ops.to_frozenset(ops.intersection_all(fam)) == frozenset(universe[40:60])


def test_size(ops, universe):
    assert ops.size(ops.from_defs(universe[:37])) == 37


def test_operations_do_not_mutate(ops, universe):
    a = ops.from_defs(universe[:10])
    b = ops.from_defs(universe[5:15])
    before = ops.to_frozenset(a)
    ops.union(a, b)
    ops.difference(a, b)
    ops.intersection(a, b)
    assert ops.to_frozenset(a) == before


def test_last_bit_of_universe(ops, universe):
    last = universe[-1]
    s = ops.from_defs([last])
    assert ops.to_frozenset(s) == frozenset([last])


def test_unknown_backend_rejected(universe):
    with pytest.raises(ValueError, match="unknown set backend"):
        make_backend("nope", universe)


def test_backend_names():
    assert set(BACKENDS) == {"set", "bitset"}
