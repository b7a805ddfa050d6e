"""Regression: the same fault gives the same typed outcome on every surface.

Each fault runs through ``repro report`` (CLI), serial and pooled
``run_batch``, and serve ``execute_request``; all must agree on the
``(status, code)`` that :func:`repro.driver.classify` and
:data:`repro.driver.STATUS_CODES` assign (the CLI has only its exit
code).  Injected faults are monkeypatches on ``repro.driver``, which the
pooled batch inherits across fork.  A worker process that dies
(``os._exit``) is ``crashed``/2 on the two process-isolated surfaces.
"""

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro import driver
from repro.batch import BatchOptions, run_batch
from repro.pfg.validate import PFGInvariantError
from repro.serve import protocol, worker as serve_worker
from repro.serve.supervisor import Supervisor
from repro.tools.cli import main

OK_SRC = """program ok
(1) x = 1
(2) parallel sections
  (3) section A
    (3) x = 2
  (4) section B
    (4) y = x
(5) end parallel sections
end
"""

SYNC_SRC = """program sync
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

BAD_SRC = "program bad\nx = = 1\nend\n"

#: ``²`` is a digit to ``str.isdigit`` but not to ``int``.
DIGIT_SRC = "program digits\nx = 1\u00b2\nend\n"

#: Parentheses nested deeper than the interpreter's stack allows.
DEEP_SRC = "program deep\nx = " + "(" * 3000 + "1" + ")" * 3000 + "\nend\n"

#: Expressions deeper than the interpreter's stack that parse fine: a flat
#: left-associative sum and a run of unary minus signs.
LONG_SUM_SRC = "program longsum\nx = 1\ny = x" + " + 1" * 1200 + "\nz = y\nend\n"
DEEP_UNARY_SRC = "program deepunary\nx = 1\ny = " + "-" * 600 + "x\nz = y\nend\n"


def _raise(exc):
    def boom(*args, **kwargs):
        raise exc

    return boom


def _no_degrade(monkeypatch):
    """Serve has no ``--no-degrade`` parameter: hand its requests one."""
    run_request = driver.run_request
    monkeypatch.setattr(
        driver, "run_request", lambda src, opts: run_request(src, replace(opts, degrade=False))
    )


#: fault → (source, CLI flags, BatchOptions, serve params, injection, expected)
FAULTS = {
    "lang-error": (BAD_SRC, [], BatchOptions(), {}, None, ("error", 1)),
    "non-decimal-digit": (DIGIT_SRC, [], BatchOptions(), {}, None, ("error", 1)),
    "deep-nesting": (DEEP_SRC, [], BatchOptions(), {}, None, ("error", 1)),
    "long-sum": (LONG_SUM_SRC, [], BatchOptions(), {}, None, ("ok", 0)),
    "deep-unary": (DEEP_UNARY_SRC, [], BatchOptions(), {}, None, ("ok", 0)),
    "long-sum-run": (LONG_SUM_SRC, [], BatchOptions(run=True), {}, None, ("ok", 0)),
    "budget-trip": (
        SYNC_SRC,
        ["--max-passes", "1", "--no-degrade"],
        BatchOptions(max_passes=1, degrade=False),
        {"max_passes": 1},
        _no_degrade,
        ("failed", 2),
    ),
    "invariant": (
        OK_SRC,
        [],
        BatchOptions(),
        {},
        lambda mp: mp.setattr(
            driver, "find_anomalies", _raise(PFGInvariantError(["fork (2) without join"]))
        ),
        ("invariant", 3),
    ),
    "type-error": (
        OK_SRC,
        [],
        BatchOptions(),
        {},
        lambda mp: mp.setattr(driver, "find_anomalies", _raise(TypeError("injected"))),
        ("failed", 2),
    ),
}


@pytest.fixture(autouse=True)
def _fresh_record_cache():
    serve_worker._RECORDS.clear()
    yield
    serve_worker._RECORDS.clear()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_same_outcome_on_every_surface(fault, tmp_path, monkeypatch, capsys):
    source, flags, options, params, inject, expected = FAULTS[fault]
    path = tmp_path / f"{fault}.pcf"
    path.write_text(source, encoding="utf-8")
    if inject is not None:
        inject(monkeypatch)

    assert main(["report", str(path), *flags]) == expected[1]
    err = capsys.readouterr().err
    assert err.startswith("error:") if expected[1] else err == ""

    serial = run_batch([str(path)], options, workers=1).records[0]
    assert (serial["status"], serial["code"]) == expected
    if inject is None or multiprocessing.get_start_method() == "fork":
        pooled = run_batch([str(path)], options, workers=2, retries=1).records[0]
        assert (pooled["status"], pooled["code"]) == expected
        assert pooled["attempts"] == 1  # a typed failure, not a worker crash

    record = serve_worker.execute_request(dict(params, source=source), deadline_s=5.0)
    status = str(record["status"])
    assert (status, protocol.STATUS_CODES[status]) == expected
    assert (record["result"] is None) == (expected[1] != 0)


#: The commands that read every expression past the request pipeline: the
#: interpreter (``run``, ``check``, ``stats`` and ``batch --run``) and the
#: CSSA renderer.  The 600 unary signs of ``deep-unary`` fit the stack of a
#: recursive walker, so only ``long-sum`` tells the two apart here.
DEEP_COMMANDS = {
    "run": [],
    "cssa": [],
    "check": [],
    "stats": [],
    "batch": ["--run", "--out", "{tmp}/manifest.jsonl"],
}


@pytest.mark.parametrize("command", sorted(DEEP_COMMANDS))
def test_long_sum_passes_every_command(command, tmp_path, capsys):
    path = tmp_path / "long-sum.pcf"
    path.write_text(LONG_SUM_SRC, encoding="utf-8")
    flags = [flag.format(tmp=tmp_path) for flag in DEEP_COMMANDS[command]]
    assert main([command, str(path), *flags]) == 0
    assert "error" not in capsys.readouterr().err


def exit_task(path, options):
    os._exit(1)


def test_process_death_is_crashed_on_isolated_surfaces(tmp_path):
    path = tmp_path / "ok.pcf"
    path.write_text(OK_SRC)
    pooled = run_batch(
        [str(path)], BatchOptions(), workers=2, retries=0, task_fn=exit_task
    ).records[0]
    assert (pooled["status"], pooled["code"]) == ("crashed", 2)

    supervisor = Supervisor(size=1, retries=0, chaos_enabled=True).start()
    try:
        record = supervisor.execute(
            {"source": OK_SRC}, deadline_s=5.0, chaos={"kill_attempts": 1}
        )
    finally:
        supervisor.stop()
    status = str(record["status"])
    assert (status, protocol.STATUS_CODES[status]) == ("crashed", 2)
