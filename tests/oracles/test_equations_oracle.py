"""The compiled §2/§5/§6 node updates against the one-operation-at-a-time
reference (``reference_equations.py``).

Both backends run the same equation code, so ``set`` vs ``bitset`` no
longer checks it.  Here every node of every program — forks, joins,
waits, loop headers, nodes with empty predecessor families — is updated
from random, non-fixpoint states on both systems, and every slot of the
node and the returned ``changed`` flag must agree; each sweep ends with
a whole-state comparison.  Each node is updated twice in a row, so the
flag is checked both when the rows move and when they already hold
their value.
"""

import random

import pytest

from repro.dataflow.bitset import BACKEND_NAMES
from repro.lang import parse_program
from repro.paper import SOURCES
from repro.pfg import build_pfg
from repro.reachdefs import (
    ConservativeRDSystem,
    ParallelRDSystem,
    SequentialRDSystem,
    SynchRDSystem,
    compute_genkill,
    equation_family,
    resolve_preserved,
)
from repro.synthetic import (
    fig3_repeated,
    par_diamond_loop,
    par_loop_chain,
    pardo_grid,
    random_mix,
    sync_pipeline,
)

from ..regression.test_fixpoint_multiplicity import TRAP
from ..regression.test_synch_oscillation import OSCILLATOR
from .reference_equations import (
    ReferenceConservative,
    ReferenceParallel,
    ReferenceSequential,
    ReferenceSynch,
)

PROGRAMS = {
    **{name: lambda src=src: parse_program(src) for name, src in SOURCES.items()},
    "trap": lambda: parse_program(TRAP),
    "oscillator": lambda: parse_program(OSCILLATOR),
    "pdloop3x3": lambda: par_diamond_loop(3, 3),
    "plchain3x4": lambda: par_loop_chain(3, 4),
    "fig3x2": lambda: fig3_repeated(2),
    "syncpipe4": lambda: sync_pipeline(4),
    "pardo2x2": lambda: pardo_grid(2, 2),
    **{f"mix{seed}": lambda seed=seed: random_mix(seed, 40) for seed in (0, 3, 4, 9, 10)},
}

#: How many random start states each program gets per configuration.
TRIALS = 3


def graph_of(name):
    return build_pfg(PROGRAMS[name]())


def random_rows(rng, graph, slots):
    """Every slot of every node a random subset of the definitions, from
    empty to (nearly) the whole universe."""
    defs = list(graph.defs)
    rows = {}
    for slot in slots:
        rows[slot] = {}
        for n in graph.nodes:
            density = rng.choice((0.0, 0.2, 0.5, 0.9))
            rows[slot][n] = frozenset(d for d in defs if rng.random() < density)
    return rows


def load(system, ref, rows, names):
    """Install ``rows`` in both; ``names`` maps a reference slot to the
    system's attribute."""
    for slot, values in rows.items():
        setattr(ref, slot, dict(values))
        target = getattr(system, names[slot])
        for n, row in values.items():
            target[n] = system.ops.from_defs(row)


def assert_rows_equal(system, ref, names, nodes):
    decode = system.ops.to_frozenset
    for slot, attr in names.items():
        got, want = getattr(system, attr), getattr(ref, slot)
        for n in nodes:
            assert decode(got[n]) == want[n], (slot, n.name)


def check_sweeps(system, ref, names, updates, seed):
    """From ``TRIALS`` random states, sweep ``updates`` over every node
    in a random order on both, comparing flags and rows as they go."""
    rng = random.Random(seed)
    graph = system.graph
    nodes = list(graph.nodes)
    for _ in range(TRIALS):
        load(system, ref, random_rows(rng, graph, names), names)
        for update in updates:
            rng.shuffle(nodes)
            for n in nodes:
                for _ in range(2):
                    changed = getattr(system, update)(n)
                    assert changed == getattr(ref, update)(n), (update, n.name)
                    assert_rows_equal(system, ref, names, [n])
            assert_rows_equal(system, ref, names, nodes)


PARALLEL_SLOTS = {slot: slot for slot in ReferenceParallel.SLOTS}
SYNCH_SLOTS = {slot: slot for slot in ReferenceSynch.SLOTS}
FLAT_SLOTS = {"In": "In", "Out": "Out"}

#: (program, filter_synch_pass) for every concurrent program; the filter
#: is a §6 option, so §5 programs run once.
CONCURRENT = [
    (name, filter_synch_pass)
    for name in sorted(PROGRAMS)
    for family in [equation_family(graph_of(name))]
    if family != "sequential"
    for filter_synch_pass in ((True, False) if family == "synch" else (True,))
]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("name, filter_synch_pass", CONCURRENT)
def test_parallel_and_synch_updates_match_reference(name, filter_synch_pass, backend):
    graph = graph_of(name)
    info = compute_genkill(graph)
    updates = ("update_flow", "update_kill")
    if equation_family(graph) == "synch":
        preserved = resolve_preserved(graph)
        system = SynchRDSystem(
            graph, preserved=preserved, backend=backend, info=info,
            filter_synch_pass=filter_synch_pass,
        )
        ref = ReferenceSynch(graph, info, preserved, filter_synch_pass)
        check_sweeps(system, ref, SYNCH_SLOTS, updates, seed=len(name))
    else:
        system = ParallelRDSystem(graph, backend=backend, info=info)
        ref = ReferenceParallel(graph, info)
        check_sweeps(system, ref, PARALLEL_SLOTS, updates, seed=len(name))


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_parallel_updates_on_every_graph_match_reference(name, backend):
    # The §5 system also runs on §6 graphs (ignoring sync edges) and on
    # sequential ones.
    graph = graph_of(name)
    info = compute_genkill(graph)
    system = ParallelRDSystem(graph, backend=backend, info=info)
    ref = ReferenceParallel(graph, info)
    check_sweeps(system, ref, PARALLEL_SLOTS, ("update_flow", "update_kill"), seed=7)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_sequential_and_conservative_updates_match_reference(name, backend):
    graph = graph_of(name)
    info = compute_genkill(graph)
    for cls, ref_cls in (
        (SequentialRDSystem, ReferenceSequential),
        (ConservativeRDSystem, ReferenceConservative),
    ):
        system = cls(graph, backend=backend, info=info)
        check_sweeps(system, ref_cls(graph, info), FLAT_SLOTS, ("update",), seed=11)


def test_corpus_covers_every_node_kind():
    kinds = set()
    for name in PROGRAMS:
        graph = graph_of(name)
        for n in graph.nodes:
            kinds.update(
                kind
                for kind, present in (
                    ("fork", n.is_fork),
                    ("join", n.is_join),
                    ("wait", n.is_wait),
                    ("implicit branch", n.implicit_branch),
                    ("no preds", not graph.all_preds(n)),
                    ("mixed par/seq preds", graph.par_preds(n) and graph.seq_preds(n)),
                    ("several sync preds", len(graph.sync_preds(n)) > 1),
                )
                if present
            )
    assert kinds == {
        "fork", "join", "wait", "implicit branch", "no preds",
        "mixed par/seq preds", "several sync preds",
    }
