"""Property: both set backends compute identical fixpoints, and the
backend operations agree with frozenset semantics on random inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import analyze
from repro.dataflow.bitset import BACKENDS, make_backend
from repro.ir.defs import DefTable

from .conftest import generated_programs


@settings(max_examples=30, deadline=None)
@given(prog=generated_programs())
def test_fixpoints_identical_across_backends(prog):
    base = analyze(prog, backend="set")
    other = analyze(prog, backend="bitset")
    for node in base.graph.nodes:
        assert base.in_names(node) == other.in_names(node.name), node.name
        assert base.out_names(node) == other.out_names(node.name), node.name


def _universe(n=70):
    t = DefTable()
    for i in range(n):
        t.add(f"v{i % 5}", str(i))
    return list(t)


UNIVERSE = _universe()
subsets = st.sets(st.integers(min_value=0, max_value=len(UNIVERSE) - 1))


@settings(max_examples=200, deadline=None)
@given(a=subsets, b=subsets, backend=st.sampled_from(sorted(BACKENDS)))
def test_operations_match_frozenset_model(a, b, backend):
    ops = make_backend(backend, UNIVERSE)
    fa = frozenset(UNIVERSE[i] for i in a)
    fb = frozenset(UNIVERSE[i] for i in b)
    sa, sb = ops.from_defs(fa), ops.from_defs(fb)
    assert ops.to_frozenset(ops.union(sa, sb)) == fa | fb
    assert ops.to_frozenset(ops.intersection(sa, sb)) == fa & fb
    assert ops.to_frozenset(ops.difference(sa, sb)) == fa - fb
    assert ops.equals(sa, sb) == (fa == fb)
    assert ops.size(sa) == len(fa)


@settings(max_examples=100, deadline=None)
@given(
    fams=st.lists(subsets, max_size=4),
    backend=st.sampled_from(sorted(BACKENDS)),
)
def test_family_operations_match_model(fams, backend):
    ops = make_backend(backend, UNIVERSE)
    fsets = [frozenset(UNIVERSE[i] for i in f) for f in fams]
    handles = [ops.from_defs(f) for f in fsets]
    expected_union = frozenset().union(*fsets) if fsets else frozenset()
    assert ops.to_frozenset(ops.union_all(handles)) == expected_union
    if fsets:
        expected_inter = frozenset.intersection(*fsets)
    else:
        expected_inter = frozenset()  # DESIGN.md empty-intersection rule
    assert ops.to_frozenset(ops.intersection_all(handles)) == expected_inter
