"""Unit tests for the concurrent batch-analysis driver (repro.batch)."""

import json

import pytest

from repro import obs
from repro.batch import (
    SCHEMA,
    BatchOptions,
    TASK_EXIT_CODES,
    batch_exit_code,
    read_manifest,
    render_batch_summary,
    run_batch,
    run_task,
)
from repro.batch.driver import _pool_record
from repro.serve.supervisor import _terminal

OK_SRC = """program ok
(1) x = 1
(2) y = x + 1
(3) z = x + y
end
"""

PARALLEL_SRC = """program par
(1) x = 1
(2) parallel sections
  (3) section A
    (3) x = 2
  (4) section B
    (4) y = x
(5) end parallel sections
end
"""

DEADLOCK_SRC = """program dl
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

BAD_SRC = "program bad\nx = = 1\nend\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def ok_file(tmp_path):
    return _write(tmp_path, "ok.pcf", OK_SRC)


@pytest.fixture
def deadlock_file(tmp_path):
    return _write(tmp_path, "dl.pcf", DEADLOCK_SRC)


@pytest.fixture
def diverge_file(tmp_path):
    # A loop nest deep enough that analysis needs more passes than the
    # caps the tests below set (healthy programs converge well under).
    from repro import pretty
    from repro.synthetic import loop_nest

    return _write(tmp_path, "diverge.pcf", pretty(loop_nest(8)))


# -- run_task: one record per outcome --------------------------------------


def test_run_task_ok_record(ok_file):
    rec = run_task(ok_file, BatchOptions())
    assert rec["type"] == "task"
    assert rec["status"] == "ok" and rec["code"] == 0
    assert rec["program"] == "ok"
    assert len(rec["digest"]) == 64
    assert rec["system"] == "sequential"
    assert rec["stats"]["converged"] is True
    assert rec["anomalies"] == 0 and rec["sync_issues"] == 0
    assert rec["degradation"] is None and rec["error"] is None
    assert rec["wall_s"] > 0
    assert rec["counters"]["solve.runs"] >= 1


def test_run_task_parse_error(tmp_path):
    rec = run_task(_write(tmp_path, "bad.pcf", BAD_SRC), BatchOptions())
    assert rec["status"] == "error" and rec["code"] == 1
    assert "expected an expression" in rec["error"]
    assert rec["digest"] is None and rec["stats"] is None


def test_run_task_missing_file():
    rec = run_task("/nonexistent/x.pcf", BatchOptions())
    assert rec["status"] == "error" and rec["code"] == 1


def test_run_task_budget_failure_without_ladder(diverge_file):
    rec = run_task(diverge_file, BatchOptions(max_passes=8, degrade=False))
    assert rec["status"] == "failed" and rec["code"] == 2
    assert "pass budget 8 exceeded" in rec["error"]
    assert rec["stats"]["converged"] is False  # partial stats preserved


def test_run_task_honors_degradation_ladder(diverge_file):
    rec = run_task(diverge_file, BatchOptions(max_passes=8, degrade=True))
    assert rec["status"] == "degraded" and rec["code"] == 0
    assert rec["degradation"]["level_name"] == "conservative"
    assert rec["stats"]["converged"] is True


def test_run_task_dynamic_deadlock(deadlock_file):
    rec = run_task(deadlock_file, BatchOptions(run=True))
    assert rec["status"] == "dynamic-failure" and rec["code"] == 4
    assert rec["error"] == "deadlock (blocked on: e)"
    assert rec["interp"]["deadlocked"] is True
    assert rec["interp"]["blocked_events"] == ["e"]
    # the static-analysis provenance (it degraded on the blocking lint)
    # is still on the record
    assert rec["degradation"]["level_name"] == "no-preserved"


def test_run_task_never_raises_on_invariant(tmp_path, monkeypatch):
    import repro.batch.driver as driver_mod
    from repro.pfg.validate import PFGInvariantError

    def boom(*args, **kwargs):
        raise PFGInvariantError(["fork (2) without matching join"])

    monkeypatch.setattr("repro.driver.analyze_with_degradation", boom)
    rec = run_task(_write(tmp_path, "ok.pcf", OK_SRC), BatchOptions())
    assert rec["status"] == "invariant" and rec["code"] == 3
    assert driver_mod.TASK_EXIT_CODES[rec["status"]] == 3


def test_crash_record_shape():
    rec = _pool_record("x.pcf", _terminal("crashed", "pool died", 2))
    assert rec["status"] == "crashed" and rec["code"] == 2
    assert "pool died" in rec["error"]
    assert rec["attempts"] == 2
    assert batch_exit_code([rec]) == 2


# -- run_batch: aggregation, manifest, metrics ------------------------------


def test_run_batch_serial_mixed_corpus(ok_file, deadlock_file, diverge_file, tmp_path):
    manifest = tmp_path / "batch.jsonl"
    report = run_batch(
        [ok_file, deadlock_file, diverge_file],
        BatchOptions(max_passes=8, degrade=False, run=True),
        workers=1,
        manifest_path=manifest,
    )
    assert report.exit_code == 2
    assert report.by_status() == {"dynamic-failure": 1, "failed": 1, "ok": 1}
    # serial mode preserves input order
    assert [r["file"] for r in report.records] == [ok_file, deadlock_file, diverge_file]

    records = read_manifest(manifest)
    assert records[0]["schema"] == SCHEMA
    assert records[0]["workers"] == 1 and records[0]["inputs"] == 3
    assert records[0]["options"]["max_passes"] == 8
    tasks = [r for r in records if r["type"] == "task"]
    assert len(tasks) == 3
    summary = records[-1]
    assert summary["type"] == "summary"
    assert summary["total"] == 3 and summary["exit_code"] == 2
    assert summary["by_status"] == {"dynamic-failure": 1, "failed": 1, "ok": 1}


def test_run_batch_pool_matches_serial_outcomes(ok_file, deadlock_file, diverge_file):
    options = BatchOptions(max_passes=8, degrade=False, run=True)
    serial = run_batch([ok_file, deadlock_file, diverge_file], options, workers=1)
    pooled = run_batch([ok_file, deadlock_file, diverge_file], options, workers=2)
    by_file = lambda recs: {r["file"]: (r["status"], r["code"]) for r in recs}
    assert by_file(serial.records) == by_file(pooled.records)
    assert pooled.exit_code == 2


def test_run_batch_merges_worker_metrics(ok_file, deadlock_file):
    with obs.session() as sess:
        run_batch([ok_file, deadlock_file], BatchOptions(), workers=1)
    counters = sess.metrics.as_dict()["counters"]
    assert counters["batch.tasks"] == 2
    assert counters["batch.status.ok"] == 1
    assert counters["batch.status.degraded"] == 1
    # per-task session counters aggregated into the parent
    assert counters["solve.runs"] >= 2
    assert counters["pfg.builds"] == 2
    assert counters["cache.pfg.misses"] == 2


def test_run_batch_all_ok_exit_0(ok_file):
    report = run_batch([ok_file], BatchOptions())
    assert report.exit_code == 0
    assert report.records[0]["counters"]  # counters snapshot travels


# -- summary rendering ------------------------------------------------------


def test_render_summary_sorted_and_timeless(ok_file, deadlock_file, diverge_file):
    report = run_batch(
        [diverge_file, deadlock_file, ok_file],  # deliberately unsorted
        BatchOptions(max_passes=8, degrade=False, run=True),
        workers=1,
    )
    text = report.render_summary()
    lines = text.splitlines()
    assert lines[0].startswith("batch summary: 3 task(s)")
    assert "exit 2" in lines[0]
    rows = lines[3:]
    assert [row.split()[0] for row in rows] == sorted(
        r["file"] for r in report.records
    )
    assert "wall" not in text  # no wall-clock — the output is deterministic


def test_render_summary_is_deterministic_across_runs(ok_file, deadlock_file):
    options = BatchOptions(run=True)
    first = run_batch([ok_file, deadlock_file], options).render_summary()
    second = run_batch([deadlock_file, ok_file], options).render_summary()
    assert first == second


# -- manifest validation ----------------------------------------------------


def test_read_manifest_rejects_wrong_schema(tmp_path):
    path = tmp_path / "other.jsonl"
    path.write_text(json.dumps({"type": "meta", "schema": "repro-obs/1"}) + "\n")
    with pytest.raises(ValueError, match="repro-batch/1"):
        read_manifest(path)


def test_task_exit_codes_cover_contract():
    # The per-task codes must stay inside the CLI's documented contract.
    assert set(TASK_EXIT_CODES.values()) <= {0, 1, 2, 3, 4}
    assert TASK_EXIT_CODES["ok"] == 0
    assert TASK_EXIT_CODES["error"] == 1
    assert TASK_EXIT_CODES["failed"] == 2
    assert TASK_EXIT_CODES["invariant"] == 3
    assert TASK_EXIT_CODES["dynamic-failure"] == 4
