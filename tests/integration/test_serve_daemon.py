"""Integration: a live ``repro serve`` daemon driven through its whole
operational envelope — healthy traffic, warm-cache repeats, chaos
crash/retry, deadline kills, load shedding, policy degradation, and
graceful drain.  Everything runs on a background thread + real worker
processes; the zero-lost-requests invariant (every request gets exactly
one terminal response) is asserted throughout.
"""

import concurrent.futures
import json
import threading

import pytest

from repro.obs import read_jsonl
from repro.serve import ServeClient, ServeConfig, ServerThread

SEQ = "program tiny\n  (1) a = 1\n  (2) b = a + 1\nend program\n"

PAR = """program par
  (1) a = 0
  (2) parallel sections
    (3) section A
      (3) a = a + 1
    (4) section B
      (4) b = 2
  (5) end parallel sections
  (5) c = a + b
end program
"""


@pytest.fixture(scope="module")
def chaos_daemon():
    config = ServeConfig(
        workers=2,
        max_pending=8,
        retries=1,
        deadline_s=10.0,
        deadline_grace_s=1.0,
        backoff_base_s=0.01,
        backoff_cap_s=0.05,
        chaos=True,
    )
    with ServerThread(config) as srv:
        yield srv


def _client(daemon):
    return ServeClient("127.0.0.1", daemon.port)


class TestHealthyPath:
    def test_ok_roundtrip(self, chaos_daemon):
        with _client(chaos_daemon) as c:
            status, env = c.rpc(SEQ, "ok-1")
        assert status == 200
        assert env["status"] == "ok"
        assert env["code"] == 0
        assert env["id"] == "ok-1"
        assert env["result"]["system"] == "sequential"
        assert env["attempts"] == 1
        assert env["timings"]["total_ms"] > 0

    def test_parallel_program_and_options(self, chaos_daemon):
        with _client(chaos_daemon) as c:
            status, env = c.rpc(PAR, 2, options={"backend": "set", "solver": "worklist"})
        assert status == 200
        assert env["status"] in ("ok", "degraded")
        assert env["result"]["program"] == "par"

    def test_warm_cache_repeats_are_solver_free(self, chaos_daemon):
        source = "program warm\n  (1) x = 7\n  (2) y = x * 2\nend program\n"
        with _client(chaos_daemon) as c:
            before = c.healthz()["counters"].get("cache.serve.hits", 0)
            # Hit every worker at least once so each warms its own cache;
            # then total repeats exceed worker count, forcing hits.
            for i in range(6):
                status, env = c.rpc(source, f"warm-{i}")
                assert status == 200 and env["status"] == "ok"
            after = c.healthz()["counters"]
        assert after.get("cache.serve.hits", 0) > before
        assert after.get("cache.hits", 0) >= after.get("cache.serve.hits", 0)

    def test_syntax_error_is_typed(self, chaos_daemon):
        with _client(chaos_daemon) as c:
            status, env = c.rpc("program broken\n  (1) a = =\nend program\n", "err-1")
        assert status == 200
        assert env["status"] == "error"
        assert env["code"] == 1
        assert env["error"]

    def test_bad_request_rejected_before_admission(self, chaos_daemon):
        with _client(chaos_daemon) as c:
            admitted_before = c.healthz()["admission"]["admitted"]
            status, env = c.rpc("", "bad-1")
            admitted_after = c.healthz()["admission"]["admitted"]
        assert status == 400
        assert env["status"] == "bad-request"
        assert env["id"] == "bad-1"
        assert admitted_after == admitted_before

    @pytest.mark.parametrize(
        "option", [{"solver": "scc-dense"}, {"backend": "numpy"}], ids=["scc-dense", "numpy"]
    )
    def test_removed_engine_names_are_bad_requests(self, chaos_daemon, option):
        with _client(chaos_daemon) as c:
            status, env = c.rpc(SEQ, "gone-1", options=option)
        assert status == 400
        assert env["status"] == "bad-request"
        assert next(iter(option)) in env["error"]

    def test_healthz_shape(self, chaos_daemon):
        with _client(chaos_daemon) as c:
            health = c.healthz()
        assert health["status"] == "ok"
        assert health["schema"] == "repro-serve/1"
        assert health["workers"]["size"] == 2
        assert health["admission"]["max_pending"] == 8
        assert "policy" in health and "counters" in health

    def test_readyz_while_admitting(self, chaos_daemon):
        with _client(chaos_daemon) as c:
            status, body = c.readyz()
        assert status == 200
        assert body["ready"] is True


class TestChaos:
    def test_crash_then_recover(self, chaos_daemon):
        with _client(chaos_daemon) as c:
            status, env = c.rpc(SEQ, "chaos-1", chaos={"kill_attempts": 1})
        assert status == 200
        assert env["status"] == "ok"
        assert env["attempts"] == 2  # first attempt died, retry succeeded

    def test_retry_exhaustion_is_typed_crashed(self, chaos_daemon):
        with _client(chaos_daemon) as c:
            status, env = c.rpc(SEQ, "chaos-2", chaos={"kill_attempts": 99})
        assert status == 200
        assert env["status"] == "crashed"
        assert env["code"] == 2
        assert env["attempts"] == 2  # retries=1 → two attempts total

    def test_supervisor_stats_surface_in_healthz(self, chaos_daemon):
        with _client(chaos_daemon) as c:
            health = c.healthz()
        assert health["workers"]["crashes"] >= 1
        assert health["workers"]["respawns"] >= 1
        assert health["workers"]["alive"] == 2  # pool healed after chaos

    def test_deadline_blown_worker_is_killed(self, chaos_daemon):
        with _client(chaos_daemon) as c:
            status, env = c.rpc(
                SEQ,
                "slow-1",
                options={"deadline_s": 0.2},
                chaos={"delay_ms": 5000},
            )
        assert status == 200
        assert env["status"] == "timeout"
        assert env["code"] == 2
        assert env["attempts"] == 1  # deadline spent: no retry
        with _client(chaos_daemon) as c:
            status, env = c.rpc(SEQ, "after-slow")
        assert env["status"] == "ok"  # pool healed


class TestOverload:
    def test_burst_sheds_fast_and_loses_nothing(self):
        config = ServeConfig(
            workers=1,
            max_pending=3,
            deadline_s=10.0,
            deadline_grace_s=1.0,
            chaos=True,
        )
        n = 10
        with ServerThread(config) as srv:

            def fire(i):
                with ServeClient("127.0.0.1", srv.port) as c:
                    return c.rpc(
                        SEQ, f"burst-{i}", chaos={"delay_ms": 300}
                    )

            with concurrent.futures.ThreadPoolExecutor(max_workers=n) as pool:
                results = list(pool.map(fire, range(n)))
            with ServeClient("127.0.0.1", srv.port) as c:
                health = c.healthz()
        # Exactly one terminal response per request — none lost, none hung.
        assert len(results) == n
        by_status = {}
        for http, env in results:
            by_status[env["status"]] = by_status.get(env["status"], 0) + 1
            if env["status"] == "shed":
                assert http == 429
                assert env["code"] == 5
            else:
                assert http == 200
        assert by_status.get("ok", 0) >= 1
        assert by_status.get("shed", 0) >= 1  # 10 requests into 3 slots
        assert by_status.get("ok", 0) + by_status.get("shed", 0) == n
        assert health["admission"]["shed"] >= by_status["shed"]

    def test_degradation_policy_steps_down_under_load(self):
        # queue_l1=0 makes every request degrade one rung (drill mode).
        config = ServeConfig(
            workers=1,
            max_pending=4,
            degrade_queue_l1=0,
        )
        with ServerThread(config) as srv:
            with ServeClient("127.0.0.1", srv.port) as c:
                status, env = c.rpc(PAR, "deg-1")
                health = c.healthz()
        assert status == 200
        assert env["status"] == "degraded"
        assert env["served_level"] == 1
        assert env["degradation"]["level"] >= 1
        assert health["counters"].get("serve.policy.level1", 0) >= 1


class TestDrain:
    def test_graceful_drain_sequence(self, tmp_path):
        telemetry = tmp_path / "serve_obs.jsonl"
        config = ServeConfig(
            workers=1,
            max_pending=4,
            telemetry_path=str(telemetry),
        )
        srv = ServerThread(config)
        with srv:
            with ServeClient("127.0.0.1", srv.port) as c:
                status, env = c.rpc(SEQ, "pre-drain")
                assert env["status"] == "ok"
                srv.drain()
                # Drain is asynchronous; poll until the daemon refuses.
                # With no in-flight work the whole drain can finish before
                # the first poll, in which case the listener is already
                # closed — connection refusal is the same "not admitting"
                # signal as a 503, so accept either.
                refused = False
                deadline = threading.Event()
                for _ in range(100):
                    try:
                        status, body = c.readyz()
                    except OSError:
                        refused = True
                        break
                    if status == 503:
                        refused = True
                        assert body["ready"] is False
                        break
                    deadline.wait(0.02)
                assert refused
                try:
                    status, env = c.rpc(SEQ, "post-drain")
                except OSError:
                    pass  # fully closed: refusal at the transport layer
                else:
                    assert status == 503
                    assert env["status"] == "draining"
                    assert env["code"] == 5
            srv.join()
        # Telemetry flushed on drain: parseable repro-obs/1 JSONL with the
        # serve counters in it.
        records = read_jsonl(telemetry)
        assert records
        counters = {
            r["name"]: r for r in records if r.get("type") == "counter"
        }
        assert counters.get("serve.requests", {}).get("value", 0) >= 1

    def test_double_drain_is_harmless(self):
        config = ServeConfig(workers=1, max_pending=2)
        with ServerThread(config) as srv:
            with ServeClient("127.0.0.1", srv.port) as c:
                c.rpc(SEQ, "x")
            srv.drain()
            srv.join()
            srv.drain()  # after the loop is gone: a no-op, not a crash
