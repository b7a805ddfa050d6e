"""``solve_stabilized`` against the from-⊥ reference that compares decoded snapshots.

Comparing encoded rows (``state_key``) and re-solving only the cone of
each phase must change no row: the In/Out/kill/SynchPass rows, the
order string (``+cycle`` included) and ``converged`` equal the
reference's, on both backends.  The sparse schedule differs by design,
so its pass and update counts are only bounded by the reference's.
"""

import pytest

from benchmarks.e2e import corpus
from repro.dataflow.bitset import BACKEND_NAMES
from repro.dataflow.solver import make_order, solve_stabilized
from repro.lang import parse_program
from repro.paper import SOURCES
from repro.pfg import build_pfg
from repro.reachdefs import ParallelRDSystem, SynchRDSystem, equation_family, resolve_preserved
from repro.synthetic import (
    fig3_repeated,
    par_diamond_loop,
    par_loop_chain,
    random_mix,
    sync_pipeline,
)

from ..regression.test_fixpoint_multiplicity import TRAP
from ..regression.test_synch_oscillation import OSCILLATOR
from .reference_stabilized import reference_stabilized

PROGRAMS = {
    **{name: lambda src=src: parse_program(src) for name, src in SOURCES.items()},
    "trap": lambda: parse_program(TRAP),
    "oscillator": lambda: parse_program(OSCILLATOR),
    "pdloop3x3": lambda: par_diamond_loop(3, 3),
    "plchain3x4": lambda: par_loop_chain(3, 4),
    "fig3x3": lambda: fig3_repeated(3),
    "syncpipe5": lambda: sync_pipeline(5),
    # random mixes (all synchronized but mix3), including seeds whose
    # literal SynchPass equations take the cycle-meet path
    **{f"mix{seed}": lambda seed=seed: random_mix(seed, 40) for seed in (0, 3, 4, 9, 10, 26, 60)},
}

ROW_FIELDS = ("in_sets", "out_sets", "acc_killin", "acc_killout", "fork_kill", "synch_pass")


def make_system(graph, backend, filter_synch_pass):
    if equation_family(graph) == "synch":
        return SynchRDSystem(
            graph,
            preserved=resolve_preserved(graph),
            backend=backend,
            filter_synch_pass=filter_synch_pass,
        )
    return ParallelRDSystem(graph, backend=backend)


def solve_both(program, backend, order="document", filter_synch_pass=True):
    """(new result, reference result) for one program."""
    graph = build_pfg(program)
    results = []
    for solve in (solve_stabilized, reference_stabilized):
        system = make_system(graph, backend, filter_synch_pass)
        stats = solve(system, make_order(graph, order), order_name=order)
        results.append(system.to_result(stats))
    return results


def assert_identical(got, expected):
    for name in ROW_FIELDS:
        assert getattr(got, name) == getattr(expected, name), name
    assert got.stats.order == expected.stats.order
    assert got.stats.converged == expected.stats.converged
    for count in ("passes", "changing_passes", "node_updates", "changed_updates"):
        assert getattr(got.stats, count) <= getattr(expected.stats, count), count


def concurrent_programs():
    for name in sorted(PROGRAMS):
        if equation_family(build_pfg(PROGRAMS[name]())) != "sequential":
            yield name


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("name", list(concurrent_programs()))
def test_equal_to_reference(name, backend):
    for order in ("document", "rpo"):
        assert_identical(*solve_both(PROGRAMS[name](), backend, order))


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("name", ["oscillator", "mix9", "mix10", "mix26", "mix60"])
def test_cycle_meet_equal_to_reference(name, backend):
    got, expected = solve_both(PROGRAMS[name](), backend, filter_synch_pass=False)
    assert expected.stats.order.endswith("+cycle")
    assert_identical(got, expected)


@pytest.mark.parametrize("workload", ["sync", "cyclic"])
def test_equal_on_e2e_corpus(workload):
    for source in corpus.sources(corpus.build(workload, 0, corpus.SMOKE)):
        assert_identical(*solve_both(parse_program(source), "bitset"))
