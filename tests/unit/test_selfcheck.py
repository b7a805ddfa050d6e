"""The soundness oracle behind ``repro check``."""

from dataclasses import replace

from repro import analyze, obs, parse_program
from repro.interp import RandomScheduler, run_program
from repro.interp.trace import UseObservation, check_soundness
from repro.ir.defs import Use
from repro.robust import corrupt_result, self_check, verify_result
import repro.robust.selfcheck as selfcheck_mod

SYNC = """program sync
  event ready
  (1) x = 1
  (2) parallel sections
    (3) section producer
      (3) data = x + 1
      (3) post(ready)
    (4) section consumer
      (4) wait(ready)
      (4) y = data
  (5) end parallel sections
  (5) z = y
end program
"""

DEADLOCK = """program dl
  event e
  (1) a = 1
  (2) parallel sections
    (3) section one
      (3) wait(e)
      (3) b = a
    (4) section two
      (4) c = 2
  (5) end parallel sections
end program
"""


def test_self_check_passes_on_sound_program():
    report = self_check(parse_program(SYNC), runs=4)
    assert report.ok
    assert report.runs == 4
    assert report.violations == []
    assert report.degradation is None
    assert report.system == "synch"
    text = report.format()
    assert text.startswith("self-check PASS: 4 runs against the synch system")


def test_self_check_surfaces_deadlocks_without_failing():
    report = self_check(parse_program(DEADLOCK), runs=3)
    # A deadlock is a program bug, not an analysis soundness violation:
    # observations made before blocking must still be explained.
    assert report.ok
    assert report.deadlocked_seeds == [0, 1, 2]
    assert "deadlocked under seed(s) 0, 1, 2" in report.format()
    # The ladder also flagged the wait-without-post lint.
    assert report.degradation is not None
    assert "wait-without-post" in report.degradation.reason


def test_self_check_explicit_seeds():
    report = self_check(parse_program(SYNC), seeds=[10, 20])
    assert report.ok and report.runs == 2


def test_self_check_fails_on_tampered_result(monkeypatch):
    """Hand the oracle a corrupted analysis: it must FAIL deterministically."""
    prog = parse_program(SYNC)
    sound = analyze(prog)
    probe = run_program(prog, RandomScheduler(seed=0, max_loop_iters=2), graph=sound.graph)
    tampered, injected = corrupt_result(sound, probe, seed=0)
    monkeypatch.setattr(
        selfcheck_mod, "analyze_with_degradation", lambda *a, **k: (tampered, None)
    )
    report = self_check(prog, runs=5)
    assert not report.ok
    text = report.format()
    assert text.startswith("self-check FAIL")
    assert injected.definition in text


def test_verify_result_reports_per_seed():
    prog = parse_program(SYNC)
    result = analyze(prog)
    violations, deadlocked = verify_result(result, prog, seeds=range(6))
    assert violations == [] and deadlocked == []


def test_self_check_metrics():
    prog = parse_program(SYNC)
    with obs.session() as sess:
        self_check(prog, runs=3)
    counters = sess.metrics.as_dict()["counters"]
    assert counters["robust.selfcheck.runs"] == 3
    assert counters["robust.selfcheck.pass"] == 1
    assert "robust.selfcheck.fail" not in counters


def test_check_soundness_reads_one_ud_map():
    prog = parse_program(SYNC)
    sound = analyze(prog)
    run = run_program(prog, RandomScheduler(seed=0, max_loop_iters=2), graph=sound.graph)
    tampered, _ = corrupt_result(sound, run, seed=0)
    for result in (sound, tampered):
        per_use = [
            obs for obs in run.uses
            if obs.definition is not None and obs.definition not in result.reaching_use(obs.use)
        ]
        shared = check_soundness(result, run, result.ud_chains())
        assert check_soundness(result, run) == shared
        assert [v.observation for v in shared] == per_use
    assert per_use  # the tampered result is caught


def test_check_soundness_falls_back_for_uses_outside_the_map():
    prog = parse_program(SYNC)
    result = analyze(prog)
    run = run_program(prog, RandomScheduler(seed=0, max_loop_iters=2), graph=result.graph)
    defs = result.graph.defs
    unread = Use(var="x", site="5", ordinal=7)  # no statement reads there
    assert unread not in result.ud_chains()
    explained = UseObservation(use=unread, definition=defs.by_name("x1"))
    stray = UseObservation(use=unread, definition=defs.by_name("z5"))
    violations = check_soundness(result, replace(run, uses=[explained, stray]))
    assert [v.observation for v in violations] == [stray]
    assert violations[0].static_defs == (defs.by_name("x1"),)
