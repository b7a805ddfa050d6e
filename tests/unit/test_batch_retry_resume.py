"""Batch crash-retry and ``--resume``: worker-process death is retried
with backoff up to the allowance (records carry ``attempts``) and costs
only the task that died, a hung task is killed and recorded ``timeout``,
and an interrupted campaign picks up from its manifest without redoing
work."""

import json
import os
import time

import pytest

from repro.batch import (
    BatchOptions,
    load_resume_records,
    read_manifest,
    run_batch,
)
from repro.batch.driver import run_task

OK_SRC = """program ok
(1) x = 1
(2) y = x + 1
end
"""


def _write(tmp_path, name, text=OK_SRC):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- picklable fault-injection task_fns (module-level for the pool) -----


def crash_once_task(path, options):
    """Dies the first time each path is attempted (marker file keeps the
    crash count across the respawned pool), then behaves normally."""
    marker = path + ".crashed-once"
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("1")
        os._exit(1)  # hard kill: runs the BrokenProcessPool path, not an exception
    return run_task(path, options)


def always_crash_task(path, options):
    os._exit(1)


def crash_beside_sleepers_task(path, options):
    """``crash*`` files die once; the others sleep first, so they are
    still in flight on their own workers when the crash happens."""
    if os.path.basename(path).startswith("crash"):
        return crash_once_task(path, options)
    time.sleep(0.5)
    return run_task(path, options)


#: Longer than the 0.1 s deadline plus the supervisor's 2 s grace.
HANG_S = 4.0


def hang_task(path, options):
    """``hang*`` files sleep past their deadline, then finish normally."""
    if os.path.basename(path).startswith("hang"):
        time.sleep(HANG_S)
    return run_task(path, options)


def _by_name(report):
    return {os.path.basename(str(r["file"])): r for r in report.records}


class TestCrashRetry:
    def test_crash_is_retried_and_attempts_recorded(self, tmp_path):
        target = _write(tmp_path, "a.pcf")
        report = run_batch(
            [target],
            BatchOptions(),
            workers=2,
            retries=1,
            retry_backoff_s=0.01,
            task_fn=crash_once_task,
        )
        assert len(report.records) == 1
        record = report.records[0]
        assert record["status"] == "ok"
        assert record["attempts"] == 2
        assert report.exit_code == 0

    def test_retry_exhaustion_writes_typed_crashed_record(self, tmp_path):
        target = _write(tmp_path, "a.pcf")
        manifest = tmp_path / "m.jsonl"
        report = run_batch(
            [target],
            BatchOptions(),
            workers=2,
            manifest_path=manifest,
            retries=2,
            retry_backoff_s=0.01,
            task_fn=always_crash_task,
        )
        record = report.records[0]
        assert record["status"] == "crashed"
        assert record["code"] == 2
        assert record["attempts"] == 3  # first try + 2 retries
        assert "worker crashed" in record["error"]
        assert report.exit_code == 2
        # The manifest row agrees with the in-memory record.
        rows = [r for r in read_manifest(manifest) if r.get("type") == "task"]
        assert rows[0]["status"] == "crashed"
        assert rows[0]["attempts"] == 3

    def test_zero_retries_crashes_on_first_failure(self, tmp_path):
        target = _write(tmp_path, "a.pcf")
        report = run_batch(
            [target],
            BatchOptions(),
            workers=2,
            retries=0,
            retry_backoff_s=0.01,
            task_fn=always_crash_task,
        )
        assert report.records[0]["status"] == "crashed"
        assert report.records[0]["attempts"] == 1

    def test_healthy_tasks_carry_attempts_1(self, tmp_path):
        target = _write(tmp_path, "a.pcf")
        for workers in (1, 2):
            report = run_batch([target], BatchOptions(), workers=workers)
            assert report.records[0]["attempts"] == 1


class TestBlastRadius:
    """A crash costs only the task that crashed, never its siblings."""

    def _run(self, tmp_path, retries):
        paths = [_write(tmp_path, name) for name in ("a.pcf", "b.pcf", "crash.pcf")]
        report = run_batch(
            paths,
            BatchOptions(),
            workers=3,
            retries=retries,
            retry_backoff_s=0.01,
            task_fn=crash_beside_sleepers_task,
        )
        return _by_name(report)

    def test_retry_reruns_only_the_crashed_task(self, tmp_path):
        records = self._run(tmp_path, retries=1)
        for name in ("a.pcf", "b.pcf"):
            assert (records[name]["status"], records[name]["attempts"]) == ("ok", 1)
        assert (records["crash.pcf"]["status"], records["crash.pcf"]["attempts"]) == ("ok", 2)

    def test_without_retries_only_the_crashed_task_is_crashed(self, tmp_path):
        records = self._run(tmp_path, retries=0)
        for name in ("a.pcf", "b.pcf"):
            assert (records[name]["status"], records[name]["attempts"]) == ("ok", 1)
        crashed = records["crash.pcf"]
        assert (crashed["status"], crashed["code"], crashed["attempts"]) == ("crashed", 2, 1)


def test_hung_task_is_killed_and_recorded_timeout(tmp_path):
    paths = [_write(tmp_path, "a.pcf"), _write(tmp_path, "hang.pcf")]
    report = run_batch(paths, BatchOptions(deadline_s=0.1), workers=2, task_fn=hang_task)
    records = _by_name(report)
    hung = records["hang.pcf"]
    assert (hung["status"], hung["code"], hung["attempts"]) == ("timeout", 2, 1)
    assert records["a.pcf"]["status"] == "ok"
    # A pool-ended task keeps the record shape of a finished one.
    assert set(hung) == set(records["a.pcf"])
    assert report.exit_code == 2


class TestResume:
    def test_resume_skips_done_tasks_and_appends(self, tmp_path):
        a = _write(tmp_path, "a.pcf")
        b = _write(tmp_path, "b.pcf", OK_SRC.replace("program ok", "program okb"))
        manifest = tmp_path / "m.jsonl"

        first = run_batch([a], BatchOptions(), workers=1, manifest_path=manifest)
        assert len(first.records) == 1

        second = run_batch(
            [a, b],
            BatchOptions(),
            workers=1,
            manifest_path=manifest,
            resume=True,
        )
        # Only b actually ran; the report still covers both.
        assert len(second.records) == 2
        files = sorted(str(r["file"]) for r in second.records)
        assert files == sorted([a, b])
        assert second.exit_code == 0

        # One meta line, both tasks, and the *last* summary is cumulative.
        lines = [json.loads(l) for l in manifest.read_text().splitlines()]
        assert sum(1 for l in lines if l.get("type") == "meta") == 1
        assert sum(1 for l in lines if l.get("type") == "task") == 2
        assert lines[-1]["type"] == "summary"
        assert lines[-1]["total"] == 2

    def test_resume_with_fully_complete_manifest_runs_nothing(self, tmp_path):
        a = _write(tmp_path, "a.pcf")
        manifest = tmp_path / "m.jsonl"
        run_batch([a], BatchOptions(), workers=1, manifest_path=manifest)
        before = manifest.read_text()
        report = run_batch(
            [a], BatchOptions(), workers=1, manifest_path=manifest, resume=True
        )
        assert len(report.records) == 1  # the prior record, nothing rerun
        after = manifest.read_text()
        # Only a fresh cumulative summary got appended — no new task rows.
        new_lines = after[len(before):].strip().splitlines()
        assert all(json.loads(l)["type"] == "summary" for l in new_lines)

    def test_resume_tolerates_truncated_tail(self, tmp_path):
        a = _write(tmp_path, "a.pcf")
        b = _write(tmp_path, "b.pcf", OK_SRC.replace("program ok", "program okb"))
        manifest = tmp_path / "m.jsonl"
        run_batch([a], BatchOptions(), workers=1, manifest_path=manifest)
        with manifest.open("a") as fh:
            fh.write('{"type": "task", "file": "half-writ')  # killed mid-write
        report = run_batch(
            [a, b], BatchOptions(), workers=1, manifest_path=manifest, resume=True
        )
        assert len(report.records) == 2

    def test_resume_requires_manifest(self, tmp_path):
        a = _write(tmp_path, "a.pcf")
        with pytest.raises(ValueError):
            run_batch([a], BatchOptions(), workers=1, resume=True)

    def test_resume_rejects_foreign_manifest(self, tmp_path):
        a = _write(tmp_path, "a.pcf")
        manifest = tmp_path / "other.jsonl"
        manifest.write_text('{"schema": "other/1"}\n')
        with pytest.raises(ValueError):
            run_batch(
                [a], BatchOptions(), workers=1, manifest_path=manifest, resume=True
            )

    def test_resume_on_missing_manifest_is_fresh_start(self, tmp_path):
        a = _write(tmp_path, "a.pcf")
        manifest = tmp_path / "new.jsonl"
        report = run_batch(
            [a], BatchOptions(), workers=1, manifest_path=manifest, resume=True
        )
        assert len(report.records) == 1
        assert load_resume_records(manifest)  # normal manifest written


def test_load_resume_records_empty_file_is_fresh(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert load_resume_records(empty) == []
