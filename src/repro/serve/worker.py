"""Serve worker: the process-pool half of the daemon.

Each worker is a long-lived child process running :func:`worker_main` — a
loop that receives job dicts over a :class:`multiprocessing.Pipe`, runs
its job handler (the daemon's is :func:`execute_request`) on each, and
sends the result record back.  Two properties carry the serving story:

* **warm repeats** — completed records are kept in a bounded
  module-level LRU (:data:`RECORD_CACHE_MAX` entries per worker) keyed
  by the source text's SHA-256 plus every result-affecting option and
  the served degradation level, and looked up *before* parsing, so a
  repeat request for an unchanged program costs a hash and a dict
  lookup.  A deadline is not part of the key: a previously completed
  record is a valid answer at any deadline.  Hits and misses land in the
  ``cache.serve.*`` counters the worker ships back, which surface
  fleet-wide via ``/healthz``;
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

#: Completed records of this worker, least recently used first: key →
#: the record's ``status``/``result``/``degradation``.
_RECORDS: "OrderedDict[tuple, Dict[str, object]]" = OrderedDict()
RECORD_CACHE_MAX = 128


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
    options = RequestOptions(
        backend=str(params.get("backend") or "bitset"),
        preserved=str(params.get("preserved") or "approx"),
        solver=str(params.get("solver") or "stabilized"),
        level=level,
        max_passes=params.get("max_passes"),
        deadline_s=deadline_s,
    )
    with obs.session() as sess:
        record = _execute(str(params["source"]), options)
    record["wall_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    record["counters"] = sess.metrics.export_state()["counters"]
    return record


def _execute(source: str, options) -> Dict[str, object]:
    from ..driver import run_request
    from ..obs import get_metrics

    source_digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    # Every result-affecting option plus the served level: a deadline is
    # not one (see the module docstring).
    serve_key = (
        source_digest,
        options.backend,
        options.preserved,
        options.solver,
        options.max_passes,
        options.level,
    )
    metrics = get_metrics()
    cached = _RECORDS.get(serve_key)
    if cached is not None:
        _RECORDS.move_to_end(serve_key)
        metrics.inc("cache.serve.hits")
        return {"error": None, **cached}
    metrics.inc("cache.serve.misses")
    record = _record(run_request(source, options))
    # Completed records are deterministic given the key.  Failures are
    # not kept: a deadline-driven failure is not a property of the
    # program, and retries should get to re-run.
    if record["result"] is not None:
        _RECORDS[serve_key] = {k: record[k] for k in ("status", "result", "degradation")}
        if len(_RECORDS) > RECORD_CACHE_MAX:
            _RECORDS.popitem(last=False)
    return record


def _record(outcome) -> Dict[str, object]:
    """The worker's record for ``outcome``: only the anomaly and
    sync-issue counts are computed, since only they are sent."""
    result = outcome.summary()  # first: a failing client fails the outcome
    return {
        "status": outcome.status,
        "error": outcome.error,
        "result": result,
        "degradation": (
            outcome.degradation.as_dict() if outcome.degradation is not None else None
        ),
    }


def worker_main(conn, handler, chaos_enabled: bool = False, peer=None) -> None:
    """Worker process entry: answer jobs from ``conn`` with ``handler``
    until EOF or a ``None`` shutdown sentinel.

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
        record = handler(job["params"], level=job["level"], deadline_s=job["deadline_s"])
        try:
            conn.send(record)
        except (BrokenPipeError, OSError):
            return
