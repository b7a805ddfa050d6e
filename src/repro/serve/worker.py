"""Serve worker: the process-pool half of the daemon.

Each worker is a long-lived child process running :func:`worker_main` — a
loop that receives job dicts over a :class:`multiprocessing.Pipe`, runs
:func:`execute_request`, and sends the result record back.  Two properties
carry the serving story:

* **warm caches** — the worker's process-wide
  :data:`repro.dataflow.cache.GLOBAL_CACHE` persists across requests, so
  a repeat request for an unchanged program is solver-free (the
  ``cache.*`` counters it ships back surface fleet-wide via ``/healthz``).
  Two serve-specific layers make that true under a deadline:
  :func:`_parse_cached` memoizes the parsed AST per source text, so the
  digest-keyed PFG/analyze caches pass their AST-identity validation on
  repeats, and completed records are memoized under the ``serve`` cache
  namespace keyed by source digest **plus** every result-affecting option
  and the served degradation level — the full-result ``analyze`` cache
  deliberately bypasses itself when a budget is armed (a budget asks for
  the work to run under a guard), but a *previously completed* record is
  a valid answer at any deadline, so serving it from cache is sound;
* **never raises** — :func:`execute_request` is a thin adapter over
  :func:`repro.driver.run_request`, which turns every analysis failure
  into a typed outcome (the same taxonomy as batch and the CLI); the
  only way a worker dies is a genuine crash (or an injected chaos kill),
  which the supervisor treats as a transport fault: kill, respawn,
  retry.

Chaos injection (``--chaos`` daemons only): a job's ``chaos`` dict may
carry ``kill_attempts`` (die with :func:`os._exit` while the job's
``attempt`` index is below it — deterministic crash-then-recover drills)
and ``delay_ms`` (sleep before analyzing — latency injection).  Daemons
started without ``--chaos`` ignore the field entirely.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from collections import OrderedDict
from typing import Dict, Optional

#: Exit code a chaos kill uses — distinguishable from real faults in logs.
CHAOS_EXIT_CODE = 23

#: Per-process AST memo: source-text digest → parsed Program.  Repeat
#: requests must analyze the *same AST object* or the digest-keyed caches
#: reject the entry (PFG nodes hold statement objects; results validate
#: ``source_program is program`` — see :mod:`repro.dataflow.cache`).
_AST_MEMO: "OrderedDict[str, object]" = OrderedDict()
_AST_MEMO_MAX = 64


def _parse_cached(source: str):
    """Parse ``source``, memoized by content digest (bounded LRU).

    Returns ``(program, source_digest)``.  Parse errors are not memoized —
    they raise through to the caller's taxonomy."""
    from ..lang import parse_program

    key = hashlib.sha256(source.encode("utf-8")).hexdigest()
    program = _AST_MEMO.get(key)
    if program is None:
        program = parse_program(source)
        _AST_MEMO[key] = program
        if len(_AST_MEMO) > _AST_MEMO_MAX:
            _AST_MEMO.popitem(last=False)
    else:
        _AST_MEMO.move_to_end(key)
    return program, key


def execute_request(
    params: Dict[str, object],
    level: int = 0,
    deadline_s: Optional[float] = None,
) -> Dict[str, object]:
    """Run one analysis request at the given degradation ``level``; never
    raises.

    ``level`` is the admission policy's precision decision: the rung the
    :mod:`repro.robust.degrade` ladder starts on — 0 full (lint and budget
    still apply), 1 no-preserved, 2 the conservative accumulate-only
    system, the cheapest sound answer, for a daemon fighting overload.
    ``deadline_s`` arms a fresh :class:`~repro.dataflow.budget.ResourceBudget`
    so one hostile program cannot hold the worker past its allowance (the
    supervisor's wall-clock kill is the backstop for hangs outside the
    solver).

    Returns a JSON-ready record: ``status``/``error``, ``result`` (on
    analysis completion), ``degradation`` (ladder provenance), and the
    worker session's ``counters`` for the parent to merge.
    """
    from .. import obs
    from ..driver import RequestOptions

    t0 = time.perf_counter()
    base_digest = params.get("base_digest")
    options = RequestOptions(
        backend=str(params.get("backend") or "bitset"),
        preserved=str(params.get("preserved") or "approx"),
        solver=str(params.get("solver") or "stabilized"),
        level=level,
        max_passes=params.get("max_passes"),
        deadline_s=deadline_s,
        base_digest=str(base_digest) if base_digest is not None else None,
    )
    with obs.session() as sess:
        record = _execute(str(params["source"]), options)
    record["wall_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    record["counters"] = sess.metrics.export_state()["counters"]
    return record


def _execute(source: str, options) -> Dict[str, object]:
    from ..dataflow.cache import GLOBAL_CACHE, MISSING
    from ..driver import Outcome, run_request

    try:
        program, source_digest = _parse_cached(source)
    except Exception as err:
        return _record(Outcome.failure(err))
    # Every result-affecting option plus the served level: a deadline is
    # not one (see the module docstring).
    serve_key = (
        "serve",
        source_digest,
        options.backend,
        options.preserved,
        options.solver,
        options.max_passes,
        options.level,
        options.base_digest,
    )
    cached = GLOBAL_CACHE.get(serve_key, MISSING)
    if cached is not MISSING:
        return {"error": None, **cached}
    record = _record(run_request(program, options))
    # Completed records are deterministic given (source, options, level)
    # — memoize so warm repeats skip the solver entirely.  Failures are
    # NOT cached: a deadline-driven failure is not a property of the
    # program, and retries should get to re-run.
    if record["result"] is not None:
        GLOBAL_CACHE.put(serve_key, {k: record[k] for k in ("status", "result", "degradation")})
    return record


def _record(outcome) -> Dict[str, object]:
    """The worker's record for ``outcome``: only the anomaly and
    sync-issue counts are computed, since only they are sent."""
    result = outcome.summary()
    if result is not None and outcome.incremental is not None:
        result["incremental"] = outcome.incremental
    return {
        "status": outcome.status,
        "error": outcome.error,
        "result": result,
        "degradation": (
            outcome.degradation.as_dict() if outcome.degradation is not None else None
        ),
    }


def worker_main(conn, chaos_enabled: bool = False, peer=None) -> None:
    """Worker process entry: serve jobs from ``conn`` until EOF or a
    ``None`` shutdown sentinel.

    ``peer`` is the supervisor's end of the pipe, inherited across fork —
    closed immediately so that if the daemon dies uncleanly (SIGKILL, a
    crash) this worker sees EOF on ``conn`` and exits instead of holding
    the pipe open against itself and lingering forever.

    SIGINT is ignored (a ^C to the daemon's process group must not kill
    workers before the parent's graceful drain coordinates shutdown);
    SIGTERM keeps its default so the supervisor's ``kill()`` works.
    """
    if peer is not None:
        try:
            peer.close()
        except OSError:  # pragma: no cover - already closed
            pass
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if job is None:
            return
        chaos = (job.get("chaos") or {}) if chaos_enabled else {}
        if int(chaos.get("kill_attempts", 0) or 0) > int(job.get("attempt", 0)):
            os._exit(CHAOS_EXIT_CODE)
        delay_ms = float(chaos.get("delay_ms", 0) or 0)
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)
        record = execute_request(
            job.get("params") or {},
            level=int(job.get("level", 0)),
            deadline_s=job.get("deadline_s"),
        )
        try:
            conn.send(record)
        except (BrokenPipeError, OSError):
            return
