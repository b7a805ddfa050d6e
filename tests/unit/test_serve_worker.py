"""In-process tests of :func:`repro.serve.worker.execute_request`: the
error taxonomy, the degradation levels, and the record cache (repeat
requests are answered before parsing, even with a deadline armed)."""

import pytest

from repro.serve import worker as serve_worker
from repro.serve.worker import execute_request

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


@pytest.fixture(autouse=True)
def _fresh_record_cache():
    serve_worker._RECORDS.clear()
    yield
    serve_worker._RECORDS.clear()


def test_ok_record_shape():
    record = execute_request({"source": SEQ})
    assert record["status"] == "ok"
    assert record["error"] is None
    assert record["result"]["program"] == "tiny"
    assert record["result"]["system"] == "sequential"
    assert record["result"]["anomalies"] >= 0
    assert record["degradation"] is None
    assert record["wall_ms"] >= 0
    assert isinstance(record["counters"], dict)


def test_syntax_error_is_typed_not_raised():
    record = execute_request({"source": "program broken\n  (1) a = =\nend program\n"})
    assert record["status"] == "error"
    assert record["error"]
    assert record["result"] is None


def test_unknown_internal_failure_is_caught():
    # Protocol validation normally rejects bad backends before the worker;
    # if one slips through, the worker must type it, not die.
    record = execute_request({"source": SEQ, "backend": "bogus"})
    assert record["status"] == "failed"
    assert record["error"]


def test_level1_forces_no_preserved_with_provenance():
    record = execute_request({"source": PAR, "preserved": "approx"}, level=1)
    assert record["status"] == "degraded"
    assert record["degradation"]["level"] == 1
    assert record["degradation"]["level_name"] == "no-preserved"


def test_level2_serves_conservative_directly():
    record = execute_request({"source": PAR}, level=2)
    assert record["status"] == "degraded"
    assert record["degradation"]["level_name"] == "conservative"
    assert record["result"]["system"] == "conservative"


def test_repeat_request_is_solver_free_even_with_deadline():
    from repro import obs

    first = execute_request({"source": SEQ}, deadline_s=5.0)
    assert first["status"] == "ok"
    assert first["counters"].get("solve.runs", 0) >= 1
    repeat = execute_request({"source": SEQ}, deadline_s=5.0)
    assert repeat["status"] == "ok"
    assert repeat["result"] == first["result"]
    # The warm path: a serve-namespace cache hit, zero solver activity.
    assert repeat["counters"].get("cache.serve.hits") == 1
    assert repeat["counters"].get("solve.runs", 0) == 0
    assert repeat["counters"].get("solve.passes", 0) == 0


def test_cache_key_discriminates_options_and_level():
    execute_request({"source": PAR})
    different_backend = execute_request({"source": PAR, "backend": "set"})
    assert different_backend["counters"].get("cache.serve.hits", 0) == 0
    different_level = execute_request({"source": PAR}, level=2)
    assert different_level["counters"].get("cache.serve.hits", 0) == 0
    same_again = execute_request({"source": PAR})
    assert same_again["counters"].get("cache.serve.hits") == 1


def test_failures_are_not_cached():
    bad = "program broken\n  (1) a = =\nend program\n"
    execute_request({"source": bad})
    second = execute_request({"source": bad})
    assert second["status"] == "error"
    assert second["counters"].get("cache.serve.hits", 0) == 0


def test_repeat_request_is_answered_without_parsing(monkeypatch):
    from repro import driver

    parses = []
    real = driver.parse_program
    monkeypatch.setattr(driver, "parse_program", lambda src: parses.append(1) or real(src))
    first = execute_request({"source": PAR})
    assert len(parses) == 1
    repeat = execute_request({"source": PAR})
    assert len(parses) == 1  # looked up before parsing
    assert repeat["result"] == first["result"]


def test_record_cache_is_bounded():
    for i in range(serve_worker.RECORD_CACHE_MAX + 10):
        execute_request({"source": f"program p{i}\n  (1) a = {i}\nend program\n"})
    assert len(serve_worker._RECORDS) == serve_worker.RECORD_CACHE_MAX
