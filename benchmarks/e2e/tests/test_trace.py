"""The external tracer: restoration, self-time arithmetic, and that tracing
does not change what the program computes."""

import sys

import pytest

from benchmarks.e2e import calib, corpus, workload
from benchmarks.e2e.trace import LAYERS, OP, Tracer, self_times


def _repro_attributes():
    """(owner, name) -> value for every repro module and class attribute."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            snapshot[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in list(vars(value).items()):
                    snapshot[(f"{name}.{key}", attr)] = member
    return snapshot


def test_every_patched_attribute_is_the_original_again():
    from repro import optimize
    from repro.paper import programs

    optimize(programs.SOURCES["fig3"])  # settle lazy imports first
    tracer = Tracer()
    before = _repro_attributes()
    with tracer:
        patched = [k for k, v in _repro_attributes().items() if before.get(k) is not v]
        tracer.op(optimize, programs.SOURCES["fig3"])
    after = _repro_attributes()
    assert len(patched) > 40  # anti-vacuity: the layers really were wrapped
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []
    assert {span[0] for span in tracer.spans} >= {OP, "lang", "pfg", "reachdefs.genkill", "analysis.constprop"}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [OP, 0.0, 10.0, -1, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 4.0, 6.0, 0, 0],  # overlaps a: covered time of op is [1, 6]
        [OP, 20.0, 21.0, -1, 4],
    ]
    assert self_times(spans) == [5.0, 3.0, 1.0, 2.0, 1.0]


def test_reentry_into_a_layer_counts_once():
    # SynchRDSystem.__init__ calls ParallelRDSystem.__init__: both are
    # encode-layer targets, so one system build is one span.
    from repro import analyze, parse_program
    from repro.paper import programs

    program = parse_program(programs.SOURCES["fig3"])
    tracer = Tracer(layers={"reachdefs.encode": LAYERS["reachdefs.encode"]})
    with tracer:
        tracer.op(analyze, program, cache=False)
        analyze(program, cache=False)  # outside any op: not recorded
    assert [span[0] for span in tracer.spans] == [OP, "reachdefs.encode"]


def _digests(records):
    return {(r["kind"], r["key"]): r["digest"] for r in records}


@pytest.mark.parametrize("name", ["diamonds", "sync", "edits"])
def test_traced_pass_gives_the_same_digests_as_an_untraced_pass(name):
    entries = corpus.build(name, 3, corpus.SMOKE)
    ops = workload.Ops()
    runner = workload.RUNNERS[name](entries, ops)
    runner.setup()
    with calib.Calibrated() as ops.timer:
        ops.begin_pass(0)
        runner.run_pass()
        untraced = _digests(ops.records)
        ops.records.clear()
        ops.begin_pass(1, Tracer())
        with ops.tracer:
            runner.run_pass()
    assert ops.tracer.spans, "the traced pass recorded nothing"
    assert _digests(ops.records) == untraced
