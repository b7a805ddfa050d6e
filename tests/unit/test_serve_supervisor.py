"""Supervisor state-machine tests with scripted fake workers — no real
processes.  The contract under test: every accepted job produces exactly
one terminal record (crash → respawn + retry with capped backoff; retry
exhaustion → ``crashed``; deadline → kill + ``timeout`` with no retry),
and a draining pool refuses new work with :class:`PoolStopped`.
"""

import random

import pytest

from repro.serve.supervisor import (
    PoolStopped,
    Supervisor,
    WorkerCrash,
    WorkerTimeout,
)


class FakeWorker:
    """Scripted worker: each ``call`` pops the next outcome — an exception
    class to raise, or a dict record to return."""

    def __init__(self, script):
        self._script = script
        self.alive = False
        self.killed = False
        self.calls = []

    def start(self):
        self.alive = True
        return self

    def call(self, job, timeout_s):
        self.calls.append((job, timeout_s))
        outcome = self._script.pop(0) if self._script else {"status": "ok"}
        if isinstance(outcome, type) and issubclass(outcome, Exception):
            self.alive = False
            raise outcome("scripted fault")
        return dict(outcome)

    def kill(self):
        self.killed = True
        self.alive = False

    def shutdown(self, grace_s=1.0):
        self.kill()


class ScriptedFactory:
    """Hands out FakeWorkers in order; keeps them all for inspection."""

    def __init__(self, scripts):
        self.scripts = list(scripts)
        self.spawned = []

    def __call__(self):
        script = self.scripts.pop(0) if self.scripts else []
        worker = FakeWorker(script)
        self.spawned.append(worker)
        return worker


def _supervisor(factory, **kwargs):
    kwargs.setdefault("rng", random.Random(7))
    kwargs.setdefault("sleep", lambda s: None)
    return Supervisor(size=1, worker_factory=factory, **kwargs)


def test_success_passes_record_through_with_attempts():
    factory = ScriptedFactory([[{"status": "ok", "result": {"x": 1}}]])
    sup = _supervisor(factory).start()
    record = sup.execute({"source": "p"}, deadline_s=1.0)
    assert record["status"] == "ok"
    assert record["attempts"] == 1
    assert sup.stats()["crashes"] == 0
    # The worker went back to the idle pool — a second job reuses it.
    sup.execute({"source": "p"}, deadline_s=1.0)
    assert len(factory.spawned) == 1


def test_crash_respawns_and_retries_on_fresh_worker():
    factory = ScriptedFactory([[WorkerCrash], [{"status": "ok"}]])
    sup = _supervisor(factory, retries=1).start()
    record = sup.execute({"source": "p"}, deadline_s=1.0)
    assert record["status"] == "ok"
    assert record["attempts"] == 2
    assert factory.spawned[0].killed  # the crasher was retired
    stats = sup.stats()
    assert stats["crashes"] == 1
    assert stats["respawns"] == 1
    assert stats["retries"] == 1
    # The retry ran on the respawned worker, not the dead one.
    assert len(factory.spawned[1].calls) == 1
    # The job's attempt index advanced so chaos drills see the retry.
    assert factory.spawned[1].calls[0][0]["attempt"] == 1


def test_retry_exhaustion_yields_typed_crashed_record():
    factory = ScriptedFactory([[WorkerCrash], [WorkerCrash], [WorkerCrash]])
    sup = _supervisor(factory, retries=2).start()
    record = sup.execute({"source": "p"}, deadline_s=1.0)
    assert record["status"] == "crashed"
    assert record["attempts"] == 3
    assert "retries exhausted" in record["error"]
    assert sup.stats()["crashes"] == 3
    # A fresh worker is still idle for the next request.
    rec2 = sup.execute({"source": "p"}, deadline_s=1.0)
    assert rec2["status"] == "ok"


def test_zero_retries_crashes_immediately():
    factory = ScriptedFactory([[WorkerCrash]])
    sup = _supervisor(factory, retries=0).start()
    record = sup.execute({"source": "p"}, deadline_s=1.0)
    assert record["status"] == "crashed"
    assert record["attempts"] == 1


def test_timeout_kills_respawns_and_does_not_retry():
    factory = ScriptedFactory([[WorkerTimeout], [{"status": "ok"}]])
    sup = _supervisor(factory, retries=5).start()
    record = sup.execute({"source": "p"}, deadline_s=0.5)
    assert record["status"] == "timeout"
    assert record["attempts"] == 1  # the deadline is spent; no resubmission
    assert factory.spawned[0].killed
    stats = sup.stats()
    assert stats["timeouts"] == 1
    assert stats["retries"] == 0
    assert stats["respawns"] == 1


def test_unexpected_call_error_retires_and_respawns_the_worker():
    # Any other failure of ``call`` (e.g. a pipe poll refusing its
    # timeout) ends the job as ``crashed`` without a retry, and the
    # worker is replaced, so the pool never shrinks.
    factory = ScriptedFactory([[ValueError], [{"status": "ok"}]])
    sup = _supervisor(factory, retries=3).start()
    record = sup.execute({"source": "p"}, deadline_s=1.0)
    assert record["status"] == "crashed"
    assert record["attempts"] == 1
    assert "ValueError" in record["error"]
    assert factory.spawned[0].killed
    stats = sup.stats()
    assert stats["respawns"] == 1
    assert stats["retries"] == 0
    assert sup.execute({"source": "p"}, deadline_s=1.0)["status"] == "ok"
    assert len(factory.spawned[1].calls) == 1


def test_wall_clock_allowance_is_deadline_plus_grace():
    factory = ScriptedFactory([[{"status": "ok"}]])
    sup = _supervisor(factory, deadline_grace_s=2.0).start()
    sup.execute({"source": "p"}, deadline_s=3.0)
    _, timeout_s = factory.spawned[0].calls[0]
    assert timeout_s == pytest.approx(5.0)


def test_no_deadline_means_no_wall_clock_limit():
    # ``deadline_s=None`` waits on the worker without a limit, and the
    # worker goes back to the idle pool afterwards.
    factory = ScriptedFactory([[{"status": "ok"}]])
    sup = _supervisor(factory).start()
    record = sup.execute({"source": "p"}, deadline_s=None)
    assert record["status"] == "ok"
    assert factory.spawned[0].calls[0][1] is None
    assert sup.stats()["alive"] == sup.size
    assert sup.execute({"source": "p"}, deadline_s=None)["status"] == "ok"
    assert len(factory.spawned) == 1


def test_dead_idle_worker_replaced_before_dispatch():
    factory = ScriptedFactory([[], [{"status": "ok"}]])
    sup = _supervisor(factory).start()
    factory.spawned[0].alive = False  # died while idle (external kill)
    record = sup.execute({"source": "p"}, deadline_s=1.0)
    assert record["status"] == "ok"
    assert record["attempts"] == 1  # silent replacement, not a request retry
    assert len(factory.spawned) == 2


def test_stopped_pool_refuses_new_work():
    factory = ScriptedFactory([[]])
    sup = _supervisor(factory).start()
    sup.stop()
    with pytest.raises(PoolStopped):
        sup.execute({"source": "p"}, deadline_s=1.0)
    # The sentinel persists: every later caller is also refused.
    with pytest.raises(PoolStopped):
        sup.execute({"source": "p"}, deadline_s=1.0)
    assert factory.spawned[0].killed


def test_stop_is_idempotent():
    factory = ScriptedFactory([[]])
    sup = _supervisor(factory).start()
    sup.stop()
    sup.stop()


def test_no_respawn_after_stop():
    # A crash retired during drain must not resurrect the pool.
    factory = ScriptedFactory([[], []])
    sup = _supervisor(factory).start()
    worker = factory.spawned[0]
    sup.stop()
    sup._retire(worker, respawn=True)
    assert len(factory.spawned) == 1  # no fresh spawn after stop


def test_backoff_grows_exponentially_and_caps():
    sleeps = []
    factory = ScriptedFactory(
        [[WorkerCrash], [WorkerCrash], [WorkerCrash], [WorkerCrash], [{"status": "ok"}]]
    )
    sup = Supervisor(
        size=1,
        worker_factory=factory,
        retries=10,
        backoff_base_s=0.1,
        backoff_cap_s=0.3,
        backoff_jitter=0.0,  # deterministic: pure exponential, no jitter
        sleep=sleeps.append,
        rng=random.Random(0),
    ).start()
    record = sup.execute({"source": "p"}, deadline_s=1.0)
    assert record["status"] == "ok"
    assert record["attempts"] == 5
    assert sleeps == pytest.approx([0.1, 0.2, 0.3, 0.3])  # doubles, then caps


def test_backoff_jitter_stays_within_band():
    sup = Supervisor(
        size=1,
        worker_factory=ScriptedFactory([[]]),
        backoff_base_s=0.1,
        backoff_cap_s=1.0,
        backoff_jitter=0.5,
        rng=random.Random(42),
    )
    for attempt in (1, 2, 3):
        base = min(1.0, 0.1 * (2 ** (attempt - 1)))
        for _ in range(20):
            delay = sup._backoff(attempt)
            assert base <= delay <= base * 1.5
