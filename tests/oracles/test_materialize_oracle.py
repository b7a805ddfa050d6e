"""``to_result``'s lazy rows against a per-row decode.

Every row read must equal ``ops.to_frozenset`` of its mask; rows with
equal masks, across nodes and slots, must be one object; rows the
incremental engine hands in as ``known`` must pass through unchanged;
iterating, ``len``, ``dict(...)``, ``pickle`` and ``copy.deepcopy`` of a
result must give the rows an eager decode gives; and the materialize
counters count rows when they are first read, not when the result is
built.
"""

import copy
import pickle

import pytest

from repro import obs
from repro.dataflow.solver import make_order, run_solver, solve_round_robin
from repro.lang import parse_program
from repro.paper import SOURCES
from repro.pfg import build_pfg
from repro.reachdefs.conservative import ConservativeRDSystem
from repro.reachdefs.parallel import ParallelRDSystem
from repro.reachdefs.preserved import resolve_preserved
from repro.reachdefs.sequential import SequentialRDSystem
from repro.reachdefs.synch import SynchRDSystem
from repro.synthetic import diamond_chain, fig3_repeated, par_diamond_loop, random_mix

PROGRAMS = {
    **{name: lambda src=src: parse_program(src) for name, src in SOURCES.items()},
    "diamond10": lambda: diamond_chain(10),
    "pdloop3x2": lambda: par_diamond_loop(3, 2),
    "fig3x3": lambda: fig3_repeated(3),
    **{f"mix{seed}": lambda seed=seed: random_mix(seed, 40) for seed in range(5)},
}


def sequential(graph, backend):
    system = SequentialRDSystem(graph, backend=backend)
    stats = run_solver(system, graph, "document", "round-robin")
    return system, stats, {"in_sets": system.In, "out_sets": system.Out}


def parallel(graph, backend):
    system = ParallelRDSystem(graph, backend=backend)
    stats = run_solver(system, graph)
    return system, stats, {
        "in_sets": system.In,
        "out_sets": system.Out,
        "acc_killin": system.ACCKillin,
        "acc_killout": system.ACCKillout,
        "fork_kill": system.ForkKill,
    }


def synch(graph, backend):
    system = SynchRDSystem(graph, preserved=resolve_preserved(graph), backend=backend)
    stats = run_solver(system, graph)
    return system, stats, {
        "in_sets": system.In,
        "out_sets": system.Out,
        "acc_killin": system.ACCKillin,
        "acc_killout": system.ACCKillout,
        "fork_kill": system.ForkKill,
        "synch_pass": system.SynchPass,
    }


def conservative(graph, backend):
    system = ConservativeRDSystem(graph, backend=backend)
    stats = solve_round_robin(system, make_order(graph, "document"))
    return system, stats, {"in_sets": system.In, "out_sets": system.Out}


SYSTEMS = {"sequential": sequential, "parallel": parallel, "synch": synch, "conservative": conservative}


def check_rows(result, system, slots):
    decode = system.ops.to_frozenset
    by_mask = {}
    for field, masks in slots.items():
        rows = getattr(result, field)
        assert set(rows) == set(system.graph.nodes)
        for node, row in rows.items():
            assert row == decode(masks[node])
            assert isinstance(row, frozenset)
            assert by_mask.setdefault(masks[node], row) is row


@pytest.mark.parametrize("backend", ["bitset", "set"])
@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rows_equal_per_row_decode(name, system_name, backend):
    graph = build_pfg(PROGRAMS[name]())
    system, stats, slots = SYSTEMS[system_name](graph, backend)
    check_rows(system.to_result(stats), system, slots)


@pytest.mark.parametrize("system_name", ["sequential", "parallel"])
def test_known_rows_pass_through(system_name):
    graph = build_pfg(par_diamond_loop(3, 2))
    system, stats, slots = SYSTEMS[system_name](graph, "bitset")
    keys = ["In", "Out"] if system_name == "sequential" else ["In", "Out", "ACCKillin"]
    fields = ["in_sets", "out_sets", "acc_killin"]
    seeded = graph.nodes[::3]
    # a bitset decode builds a new frozenset on every call
    known = {
        key: {n: system.ops.to_frozenset(slots[field][n]) for n in seeded}
        for key, field in zip(keys, fields)
    }
    result = system.to_result(stats, known=known)
    for key, field in zip(keys, fields):
        rows = getattr(result, field)
        for n in seeded:
            assert rows[n] is known[key][n]
        for n in graph.nodes:
            assert rows[n] == system.ops.to_frozenset(slots[field][n])


def eager_rows(system, slots):
    decode = system.ops.to_frozenset
    return {field: {n: decode(masks[n]) for n in system.graph.nodes} for field, masks in slots.items()}


def by_name(rows):
    return {n.name: sorted(d.name for d in row) for n, row in rows.items()}


@pytest.mark.parametrize("backend", ["bitset", "set"])
@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rows_behave_as_the_eager_dicts(name, system_name, backend):
    graph = build_pfg(PROGRAMS[name]())
    system, stats, slots = SYSTEMS[system_name](graph, backend)
    eager = eager_rows(system, slots)
    fresh = system.to_result(stats)
    partly_read = system.to_result(stats)
    for field in slots:
        rows = getattr(partly_read, field)
        for n in graph.nodes[::2]:
            rows[n]
    for result in (fresh, partly_read):
        for field, expected in eager.items():
            rows = getattr(result, field)
            assert list(rows) == list(graph.nodes)
            assert len(rows) == len(graph.nodes)
            assert all(n in rows for n in graph.nodes) and "nope" not in rows
            assert rows == expected and dict(rows) == expected
        for twin in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            for field, expected in eager.items():
                rows = getattr(twin, field)
                assert list(n.name for n in rows) == [n.name for n in graph.nodes]
                assert by_name(rows) == by_name(expected)
    check_rows(partly_read, system, slots)


def test_materialize_span_and_counters():
    graph = build_pfg(diamond_chain(10))
    system, stats, slots = parallel(graph, "bitset")
    with obs.session() as sess:
        result = system.to_result(stats)

        def counters():
            return {name: c.value for name, c in sess.metrics.counters.items()}

        # building the result decodes nothing
        assert "reachdefs.materialize.rows" not in counters()
        assert "reachdefs.materialize.distinct" not in counters()
        # a row counts once, on its first read; a mask once, when decoded
        half = graph.nodes[: len(graph.nodes) // 2]
        for _ in range(2):
            for n in half:
                result.in_sets[n]
        read_masks = {slots["in_sets"][n] for n in half}
        assert counters()["reachdefs.materialize.rows"] == len(half)
        assert counters()["reachdefs.materialize.distinct"] == len(read_masks)
        for field in slots:
            dict(getattr(result, field))
        rows = 5 * len(graph.nodes)
        distinct = {mask for masks in slots.values() for mask in masks.values()}
        assert counters()["reachdefs.materialize.rows"] == rows
        assert counters()["reachdefs.materialize.distinct"] == len(distinct) < rows
        # ud-chains read no row and decode nothing until a chain is read;
        # reading every chain decodes the chain masks not decoded yet
        ud = result.ud_chains()
        assert counters()["reachdefs.materialize.distinct"] == len(distinct)
        assert "client.udchains.decoded" not in counters()
        var_masks = {var: system.ops.from_defs(graph.defs.of_var(var)) for var in graph.defs.variables()}
        chains = set()
        for use in ud:
            node = graph.node(use.site)
            local = node.local_def_before(use.var, use.ordinal)
            chains.add(1 << local.index if local else slots["in_sets"][node] & var_masks[use.var])
        for _ in range(2):
            dict(ud)
        assert counters()["reachdefs.materialize.rows"] == rows
        assert counters()["client.udchains.decoded"] == len(ud)
        assert counters()["reachdefs.materialize.distinct"] == len(distinct | chains)
    (span,) = [span for span, _ in sess.tracer.walk() if span.name == "materialize"]
    assert span.attrs == {"rows": rows, "known": 0}
