"""Preserved on node masks against the frozenset reference.

``compute_preserved`` sweeps int masks over node ids and decodes a row
only when it is read.  Here the lazy rows must behave as the reference's
eager dict (``reference_graphfacts.reference_preserved``): iteration
order, ``len``, ``in``, ``==``, ``dict``, ``pickle``, ``deepcopy`` and
``names``, on fresh and half-read results; the partial sets a pass cap
or a pass budget stops on must be the reference's after as many passes;
and the §6 wait plan (the preserved sync predecessors and the SynchPass
ordering filter), read off the masks, must equal one built from the
frozenset rows, on both backends, with the filter on and off, in every
``preserved`` mode.  Building the plan, and a whole ``optimize``,
decode no Preserved row.
"""

import copy
import pickle
import random

import pytest

from benchmarks.e2e import corpus
from repro import analyze, obs, optimize
from repro.dataflow.bitset import BACKEND_NAMES
from repro.dataflow.budget import BudgetExceeded, NonConvergenceError, ResourceBudget
from repro.lang import parse_program
from repro.paper import SOURCES
from repro.pfg import build_pfg
from repro.reachdefs import SynchRDSystem, compute_genkill
from repro.reachdefs.preserved import compute_preserved, resolve_preserved
from repro.synthetic import fig3_repeated, nested_parallel, pardo_grid, random_mix, sync_pipeline

from .reference_graphfacts import reference_preserved

#: Two posts that are not mutually exclusive and have different
#: ancestors: only their common ancestors are ordered before the wait.
TWO_POSTS = """program twoposts
  event ready
  (1) x = 1
  (2) parallel sections
    (3) section left
      (3) a = x
      (4) if a then
        (5) a = 2
      endif
      (6) post(ready)
    (7) section right
      (7) b = x
      (8) post(ready)
    (9) section consumer
      (9) wait(ready)
      (9) y = a + b
  (10) end parallel sections
  (10) z = y
end program
"""

SHAPES = {
    **{name: lambda src=src: parse_program(src) for name, src in SOURCES.items()},
    "twoposts": lambda: parse_program(TWO_POSTS),
    "fig3x4": lambda: fig3_repeated(4),
    "syncpipe6": lambda: sync_pipeline(6),
    "pardo3x4": lambda: pardo_grid(3, 4),
    "nested3": lambda: nested_parallel(3),
    **{f"mix{seed}": lambda seed=seed: random_mix(seed, 60) for seed in (0, 3, 4, 7)},
}


def corpus_graphs(workload, seed):
    return [build_pfg(parse_program(s)) for s in corpus.sources(corpus.build(workload, seed))]


def graphs():
    yield from ((name, build_pfg(make())) for name, make in sorted(SHAPES.items()))
    for workload in ("sync", "cyclic"):
        for i, graph in enumerate(corpus_graphs(workload, 0)):
            yield f"{workload}{i}", graph


def by_name(rows):
    return {n.name: sorted(p.name for p in row) for n, row in rows.items()}


def check_rows(graph, result, expected):
    rows = result.preserved
    assert list(rows) == list(expected) == list(graph.nodes)
    assert len(rows) == len(graph.nodes)
    assert all(n in rows for n in graph.nodes) and "nope" not in rows
    assert rows == expected and dict(rows) == expected
    for n in graph.nodes:
        assert result[n] == expected[n]
        assert result.names(n) == frozenset(p.name for p in expected[n])
        assert isinstance(result[n], frozenset)
    for twin in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert [n.name for n in twin.preserved] == [n.name for n in graph.nodes]
        assert by_name(twin.preserved) == by_name(expected)
        assert twin.passes == result.passes


def test_rows_behave_as_the_reference_dict():
    for name, graph in graphs():
        expected, passes = reference_preserved(graph)
        fresh, half_read = compute_preserved(graph), compute_preserved(graph)
        assert not fresh.preserved._rows, name
        for n in graph.nodes[::2]:
            half_read[n]
        for result in (fresh, half_read):
            check_rows(graph, result, expected)
            assert result.passes == passes, name


def test_rows_decode_once_on_first_read():
    graph = build_pfg(fig3_repeated(3))
    with obs.session() as sess:

        def decoded():
            counter = sess.metrics.counters.get("reachdefs.preserved.rows")
            return counter.value if counter is not None else 0

        result = compute_preserved(graph)
        assert decoded() == 0
        half = graph.nodes[: len(graph.nodes) // 2]
        for _ in range(2):
            for n in half:
                assert result[n] is result.preserved[n]
        assert decoded() == len(half)
        dict(result.preserved)
        assert decoded() == len(graph.nodes)


def snapshot_names(sets):
    return {n.name: frozenset(p.name for p in s) for n, s in sets.items()}


@pytest.mark.parametrize("cap", [1, 2])
def test_stopped_runs_carry_the_reference_partial_sets(cap):
    stopped = 0
    for name, graph in graphs():
        _, passes = reference_preserved(graph)
        if passes <= cap:
            assert compute_preserved(graph, max_passes=cap).passes == passes, name
            budget = ResourceBudget(max_passes=cap)
            assert compute_preserved(graph, budget=budget).passes == passes, name
            continue
        partial, _ = reference_preserved(graph, stop_after=cap)
        expected = {"Preserved": snapshot_names(partial)}
        with pytest.raises(NonConvergenceError) as err:
            compute_preserved(graph, max_passes=cap)
        assert err.type is NonConvergenceError
        assert err.value.snapshot == expected, name
        with pytest.raises(BudgetExceeded) as err:
            compute_preserved(graph, budget=ResourceBudget(max_passes=cap))
        assert err.value.snapshot == expected, name
        stopped += 1
    assert stopped > 10


def reference_plan(graph, info, ops, rows, filter_synch_pass):
    """Each wait's ``(sync_passed, ordered)`` from frozenset rows, as the
    §6 system built them before the plan read masks."""
    plan = {}
    universe = ops.from_defs(graph.defs)
    for n in graph.waits:
        before = rows[n]
        ordered = universe
        if filter_synch_pass:
            ordered = ops.from_defs(d for d in graph.defs if info.def_node[d] in before)
        plan[n] = (tuple(p for p in graph.sync_preds(n) if p in before), ordered)
    return plan


def oracle_sets(graph, seed):
    """Random Preserved sets for the waits (others empty), as a test
    would hand in with ``preserved="oracle"``."""
    rng = random.Random(seed)
    nodes = graph.nodes
    return {w: frozenset(rng.sample(nodes, rng.randint(0, len(nodes)))) for w in graph.waits}


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("filter_synch_pass", [True, False])
@pytest.mark.parametrize("mode", ["approx", "none", "oracle"])
def test_wait_plan_equals_the_frozenset_plan(mode, filter_synch_pass, backend):
    checked = 0
    for seed, (name, graph) in enumerate(graphs()):
        if not graph.waits:
            continue
        info = compute_genkill(graph)
        oracle = oracle_sets(graph, seed) if mode == "oracle" else None
        if mode == "approx":
            rows, _ = reference_preserved(graph)
        else:
            rows = {n: (oracle or {}).get(n, frozenset()) for n in graph.nodes}
        with obs.session() as sess:
            preserved = resolve_preserved(graph, mode, oracle)
            system = SynchRDSystem(
                graph, preserved=preserved, backend=backend, info=info,
                filter_synch_pass=filter_synch_pass,
            )
            assert "reachdefs.preserved.rows" not in sess.metrics.counters, name
        expected = reference_plan(graph, info, system.ops, rows, filter_synch_pass)
        for n, (sync_passed, ordered) in expected.items():
            assert system._sync_plan[n][:2] == (sync_passed, ordered), (name, n.name)
        assert preserved.preserved == rows, name
        checked += 1
    assert checked > 20


@pytest.mark.parametrize("name", ["fig9", "fig3x4", "syncpipe6", "mix4"])
def test_requests_decode_no_preserved_row(name):
    program = SHAPES[name]()
    assert build_pfg(program).waits
    with obs.session() as sess:
        optimize(program)
        result = analyze(program)
        assert "reachdefs.preserved.rows" not in sess.metrics.counters
        result.Preserved(result.graph.waits[0])
        assert sess.metrics.counters["reachdefs.preserved.rows"].value == 1
