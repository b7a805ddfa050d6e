"""One source of solver and backend names: every surface that accepts a
``solver`` or ``backend`` reads the registry tuples in
:mod:`repro.dataflow.solver` and :mod:`repro.dataflow.bitset`, so the
CLI, serve and the fuzz oracles cannot drift apart."""

import argparse

import pytest

from repro.dataflow.bitset import BACKEND_NAMES, BACKENDS
from repro.dataflow.solver import DETERMINISTIC_SOLVERS, SOLVER_NAMES
from repro.fuzz import oracles
from repro.serve import protocol
from repro.tools.cli import build_parser


def _subcommands():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _choices(subparser, dest):
    for action in subparser._actions:
        if action.dest == dest:
            return tuple(action.choices)
    return None


def test_registry_tuples():
    assert SOLVER_NAMES == ("stabilized", "round-robin", "worklist", "scc")
    assert BACKEND_NAMES == ("set", "bitset") == tuple(BACKENDS)
    assert DETERMINISTIC_SOLVERS < set(SOLVER_NAMES)


@pytest.mark.parametrize("dest,names", [("solver", SOLVER_NAMES), ("backend", BACKEND_NAMES)])
def test_cli_choices_match_registry(dest, names):
    offered = {
        name: _choices(sub, dest)
        for name, sub in _subcommands().items()
        if _choices(sub, dest) is not None
    }
    assert offered, dest
    assert all(choices == names for choices in offered.values()), offered


def test_cli_offers_the_flags_on_the_expected_commands():
    subs = _subcommands()
    assert sorted(n for n, s in subs.items() if _choices(s, "solver")) == [
        "analyze", "batch", "check", "explain", "races", "report", "stats",
    ]
    assert sorted(n for n, s in subs.items() if _choices(s, "backend")) == [
        "analyze", "batch", "explain", "fuzz", "races",
    ]


def test_serve_accepts_exactly_the_registry():
    assert protocol.VALID_SOLVERS == SOLVER_NAMES
    assert protocol.VALID_BACKENDS == BACKEND_NAMES


def test_fuzz_reads_the_registry():
    assert oracles.ALL_SOLVERS == SOLVER_NAMES == oracles.OracleConfig().engines
    assert oracles.DETERMINISTIC_SOLVERS is DETERMINISTIC_SOLVERS
