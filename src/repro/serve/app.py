"""The ``repro serve`` daemon: asyncio JSON-RPC-over-HTTP, stdlib only.

One long-lived process holds the HTTP front end, the
:class:`~repro.serve.admission.AdmissionController`, and the
:class:`~repro.serve.supervisor.Supervisor`-owned worker pool.  Request
flow for ``POST /rpc``::

    parse + validate  → bad-request (400) before touching admission
    try_admit         → shed (429) / draining (503), fast and worker-free
    policy.level(...) → 0/1/2 precision for this request (load-aware)
    supervisor.execute in an executor thread → exactly one terminal record
    release admission, merge worker counters, record latency

``GET /healthz`` returns the full operational snapshot (supervisor
stats, admission stats, merged fleet counters — including the workers'
``cache.serve.*`` record-cache hits — queue depth, recent p99) and is
always 200 while the process lives; ``GET /readyz`` is 200 only while
admitting, 503 once draining — the load-balancer signal.

Graceful drain (SIGTERM/SIGINT in the CLI, :meth:`ServeApp.request_drain`
programmatically): stop admitting, wait for in-flight requests, stop the
supervisor, flush the metrics registry as ``repro-obs/1`` JSONL telemetry
(``--telemetry``), close the listener.  The daemon owns a private
:class:`~repro.obs.metrics.Metrics` registry rather than the ambient
session so ``/healthz`` works identically under tests, the CLI, and
embedding.
"""

from __future__ import annotations

import asyncio
import collections
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from ..obs.metrics import Metrics
from ..obs.sinks import write_jsonl
from . import protocol
from .admission import ADMITTED, SHED, AdmissionController, DegradationPolicy
from .supervisor import PoolStopped, Supervisor

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs; defaults match the CLI's."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in ready_file/app.port
    workers: int = 2
    max_pending: int = 16
    retries: int = 1
    deadline_s: float = 10.0
    deadline_grace_s: float = 2.0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    chaos: bool = False
    telemetry_path: Optional[str] = None
    ready_file: Optional[str] = None
    drain_timeout_s: float = 30.0
    latency_window: int = 128
    #: Queue-depth degradation thresholds; ``None`` = auto (2×workers / 4×workers).
    degrade_queue_l1: Optional[int] = None
    degrade_queue_l2: Optional[int] = None
    #: p99 degradation thresholds in ms; ``None`` disables the p99 trigger.
    degrade_p99_ms_l1: Optional[float] = None
    degrade_p99_ms_l2: Optional[float] = None

    def policy(self) -> DegradationPolicy:
        l1 = self.degrade_queue_l1
        if l1 is None:
            l1 = max(4, 2 * self.workers)
        l2 = self.degrade_queue_l2
        if l2 is None:
            l2 = 2 * l1 if l1 > 0 else max(8, 4 * self.workers)
        return DegradationPolicy(
            queue_l1=l1,
            queue_l2=l2,
            p99_ms_l1=self.degrade_p99_ms_l1,
            p99_ms_l2=self.degrade_p99_ms_l2,
        )


@dataclass
class _LatencyWindow:
    """Recent request latencies (ms) for the load-aware policy — a small
    ring, not the cumulative histogram, so recovery is observable."""

    maxlen: int = 128
    _values: Deque[float] = field(default_factory=collections.deque)

    def add(self, ms: float) -> None:
        self._values.append(ms)
        while len(self._values) > self.maxlen:
            self._values.popleft()

    def p99(self) -> Optional[float]:
        if not self._values:
            return None
        ordered = sorted(self._values)
        rank = max(1, -(-99 * len(ordered) // 100))  # ceil without math import
        return ordered[rank - 1]


class ServeApp:
    """The daemon's moving parts, wired; see the module docstring."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.metrics = Metrics()
        self.admission = AdmissionController(config.max_pending)
        self.policy = config.policy()
        self.supervisor = Supervisor(
            size=config.workers,
            retries=config.retries,
            backoff_base_s=config.backoff_base_s,
            backoff_cap_s=config.backoff_cap_s,
            deadline_grace_s=config.deadline_grace_s,
            chaos_enabled=config.chaos,
        )
        self._latency = _LatencyWindow(maxlen=config.latency_window)
        self._exec = ThreadPoolExecutor(
            max_workers=config.max_pending + config.workers + 4,
            thread_name_prefix="serve-exec",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed: Optional[asyncio.Event] = None
        self._drain_started = False
        self._writers: set = set()
        self.port: Optional[int] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._closed = asyncio.Event()
        self.supervisor.start()
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.ready_file:
            import os

            # Atomic: watchers poll for this file and must never read a
            # half-written JSON body.
            tmp = f"{self.config.ready_file}.tmp"
            with open(tmp, "w") as fh:
                json.dump({"port": self.port, "pid": os.getpid()}, fh)
            os.replace(tmp, self.config.ready_file)

    def request_drain(self) -> None:
        """Begin graceful drain; safe from signal handlers and any thread.
        Idempotent — a second call (or one after the loop already shut
        down) is a no-op rather than an error."""
        if self._loop is None or self._loop.is_closed():
            return
        try:
            self._loop.call_soon_threadsafe(self._schedule_drain)
        except RuntimeError:  # loop closed between the check and the call
            pass

    def _schedule_drain(self) -> None:
        if not self._drain_started:
            self._drain_started = True
            asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        self.admission.begin_drain()
        deadline = time.monotonic() + self.config.drain_timeout_s
        while not self.admission.idle() and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        await asyncio.get_running_loop().run_in_executor(
            None, self.supervisor.stop
        )
        self._flush_telemetry()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Close lingering keep-alive connections so their handler tasks
        # finish (readline sees EOF) before the loop itself shuts down.
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        self._exec.shutdown(wait=False)
        self._closed.set()

    def _flush_telemetry(self) -> None:
        if not self.config.telemetry_path:
            return
        self.metrics.set_gauge("serve.queue_depth", 0.0)
        write_jsonl(
            self.config.telemetry_path,
            tracer=None,
            metrics=self.metrics,
            meta={"command": "serve", "workers": self.config.workers},
        )

    async def wait_closed(self) -> None:
        await self._closed.wait()

    # -- HTTP front end --------------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                request_line = await asyncio.wait_for(reader.readline(), timeout=60.0)
                if not request_line or not request_line.strip():
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) < 2:
                    break
                method, target = parts[0], parts[1]
                version = parts[2] if len(parts) > 2 else "HTTP/1.1"
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0") or 0)
                body = await reader.readexactly(length) if length else b""
                status, payload = await self._route(method, target, body)
                keep_alive = (
                    headers.get(
                        "connection",
                        "keep-alive" if version == "HTTP/1.1" else "close",
                    ).lower()
                    != "close"
                )
                data = json.dumps(payload, sort_keys=True).encode("utf-8")
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                    "\r\n"
                ).encode("latin-1")
                writer.write(head + data)
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
            TimeoutError,
        ):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancelled us mid-read; the connection is being
            # abandoned anyway — exit quietly instead of spraying tracebacks.
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        target = target.split("?", 1)[0]
        if target == "/healthz" and method == "GET":
            return 200, self.health_snapshot()
        if target == "/readyz" and method == "GET":
            if self.admission.draining:
                return 503, {"ready": False, "reason": "draining"}
            return 200, {"ready": True}
        if target == "/rpc":
            if method != "POST":
                return 405, {"error": "use POST for /rpc"}
            return await self._handle_rpc(body)
        return 404, {"error": f"no route {method} {target}"}

    # -- the RPC path ----------------------------------------------------

    async def _handle_rpc(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        t_total = time.perf_counter()
        self.metrics.inc("serve.requests")
        try:
            request = protocol.validate_request(json.loads(body.decode("utf-8")))
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            return self._respond(
                protocol.response(None, "bad-request", error=f"invalid JSON: {err}"),
                t_total,
            )
        except protocol.ProtocolError as err:
            try:
                rid = json.loads(body.decode("utf-8")).get("id")
            except Exception:
                rid = None
            return self._respond(
                protocol.response(rid, "bad-request", error=str(err)), t_total
            )
        rid = request["id"]
        decision = self.admission.try_admit()
        if decision != ADMITTED:
            status = "shed" if decision == SHED else "draining"
            error = (
                f"admission queue full ({self.admission.max_pending} pending); retry later"
                if status == "shed"
                else "daemon is draining; not admitting new work"
            )
            return self._respond(
                protocol.response(rid, status, error=error), t_total
            )
        try:
            params: Dict[str, object] = dict(request["params"])
            queue_depth = max(0, self.admission.pending - self.config.workers)
            self.metrics.set_gauge("serve.queue_depth", float(self.admission.pending))
            level = self.policy.level(queue_depth, self._latency.p99())
            if level:
                self.metrics.inc(f"serve.policy.level{level}")
            deadline = self.config.deadline_s
            requested = params.get("deadline_s")
            if requested is not None:
                deadline = min(float(requested), deadline)
            chaos = request.get("chaos") if self.config.chaos else None
            t_queue = time.perf_counter()
            try:
                record = await asyncio.get_running_loop().run_in_executor(
                    self._exec,
                    self.supervisor.execute,
                    params,
                    deadline,
                    level,
                    chaos,
                )
            except PoolStopped:
                return self._respond(
                    protocol.response(
                        rid, "draining", error="daemon drained mid-request"
                    ),
                    t_total,
                )
            t_done = time.perf_counter()
            self.metrics.merge_counters(
                {str(k): int(v) for k, v in (record.get("counters") or {}).items()}
            )
            attempts = int(record.get("attempts", 1))
            if attempts > 1:
                self.metrics.inc("serve.retried_requests")
            sup = self.supervisor.stats()
            self.metrics.counter("serve.worker_crashes").value = sup["crashes"]
            self.metrics.counter("serve.worker_respawns").value = sup["respawns"]
            envelope = protocol.response(
                rid,
                str(record["status"]),
                error=record.get("error"),
                result=record.get("result"),
                degradation=record.get("degradation"),
                served_level=level,
                attempts=attempts,
                timings={
                    "queue_ms": round((t_queue - t_total) * 1000.0, 3),
                    "exec_ms": round((t_done - t_queue) * 1000.0, 3),
                },
            )
            latency_ms = (time.perf_counter() - t_total) * 1000.0
            self._latency.add(latency_ms)
            self.metrics.observe("serve.latency_ms", round(latency_ms, 3))
            return self._respond(envelope, t_total)
        finally:
            self.admission.release()

    def _respond(
        self, envelope: Dict[str, object], t_start: float
    ) -> Tuple[int, Dict[str, object]]:
        envelope["timings"] = dict(envelope.get("timings") or {})
        envelope["timings"]["total_ms"] = round(
            (time.perf_counter() - t_start) * 1000.0, 3
        )
        status = str(envelope["status"])
        self.metrics.inc(f"serve.responses.{status}")
        return protocol.http_status(status), envelope

    # -- health ----------------------------------------------------------

    def health_snapshot(self) -> Dict[str, object]:
        counters = {k: c.value for k, c in sorted(self.metrics.counters.items())}
        return {
            "status": "draining" if self.admission.draining else "ok",
            "schema": protocol.SCHEMA,
            "workers": self.supervisor.stats(),
            "admission": self.admission.snapshot(),
            "queue_depth": max(0, self.admission.pending - self.config.workers),
            "p99_ms": self._latency.p99(),
            "policy": self.policy.describe(),
            "counters": counters,
        }


async def _amain(config: ServeConfig) -> int:
    import signal as _signal
    import sys

    app = ServeApp(config)
    await app.start()
    loop = asyncio.get_running_loop()
    for sig in (_signal.SIGTERM, _signal.SIGINT):
        try:
            loop.add_signal_handler(sig, app.request_drain)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
            pass
    sys.stderr.write(
        f"repro serve: listening on {config.host}:{app.port} "
        f"(workers={config.workers}, max_pending={config.max_pending}"
        f"{', CHAOS ENABLED' if config.chaos else ''})\n"
    )
    sys.stderr.flush()
    await app.wait_closed()
    sys.stderr.write("repro serve: drained and stopped\n")
    return 0


def run_server(config: ServeConfig) -> int:
    """Blocking entry point for the CLI: serve until SIGTERM/SIGINT, drain,
    return 0."""
    return asyncio.run(_amain(config))


class ServerThread:
    """A live daemon on a background thread — the integration-test and
    embedding harness.  ``with ServerThread(config) as srv: ...srv.port...``
    guarantees drain + join on exit."""

    def __init__(self, config: ServeConfig):
        self.app = ServeApp(config)
        self._thread = None
        self._ready = None

    def __enter__(self) -> "ServerThread":
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve thread failed to start in 30s")
        return self

    async def _main(self) -> None:
        await self.app.start()
        self._ready.set()
        await self.app.wait_closed()

    @property
    def port(self) -> int:
        return self.app.port

    def drain(self) -> None:
        self.app.request_drain()

    def join(self, timeout: float = 30.0) -> None:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("serve thread did not stop after drain")

    def __exit__(self, *exc) -> None:
        self.drain()
        self.join()
