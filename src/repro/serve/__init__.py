"""repro.serve — the fault-tolerant analysis-as-a-service daemon.

``python -m repro serve --port N --workers K`` runs a long-lived asyncio
JSON-RPC-over-HTTP daemon (stdlib only) that executes analyses in a
supervised process pool, each worker keeping a cache of completed
records for repeated requests.  The robustness
machinery is the point:

* **supervised workers** — a crashed worker is killed and respawned; the
  request is retried with capped exponential backoff + jitter before a
  typed ``crashed`` response surfaces on the wire
  (:mod:`repro.serve.supervisor`);
* **per-request deadlines** — every request arms a fresh
  :class:`~repro.dataflow.budget.ResourceBudget`; a deadline-blown worker
  is killed, not waited on;
* **admission control** — a bounded pending queue; overload gets a fast
  ``shed`` (HTTP 429) response, never unbounded buffering
  (:mod:`repro.serve.admission`);
* **load-aware degradation** — queue depth / p99 latency thresholds step
  new requests down the :mod:`repro.robust.degrade` ladder (full →
  no-preserved → conservative);
* **graceful drain** — SIGTERM stops admission, finishes in-flight work,
  flushes JSONL telemetry, then exits.

The invariant the chaos drills (``benchmarks/run_serve.py --chaos``)
enforce: **every admitted request receives exactly one terminal
``repro-serve/1`` response** — no hangs, no duplicates, no losses.  See
``docs/serving.md``.

Names are resolved on first access (PEP 562), so importing a submodule —
batch runs on :mod:`repro.serve.supervisor` — does not load the HTTP
daemon.
"""

import importlib

#: Each submodule and the public names it defines.
_SUBMODULES = {
    "admission": ("ADMITTED", "DRAINING", "SHED", "AdmissionController", "DegradationPolicy"),
    "app": ("ServeApp", "ServeConfig", "ServerThread", "run_server"),
    "client": ("ServeClient",),
    "protocol": (
        "HTTP_STATUS", "SCHEMA", "STATUS_CODES", "ProtocolError", "classify",
        "http_status", "response", "validate_request",
    ),
    "supervisor": ("PoolStopped", "ProcessWorker", "Supervisor", "WorkerCrash", "WorkerTimeout"),
    "worker": ("execute_request", "worker_main"),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
