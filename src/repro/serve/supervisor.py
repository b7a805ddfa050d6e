"""Supervised worker pool: crash→respawn, deadline kills, capped-backoff
retries.

Every ``repro serve`` request and every pooled ``repro batch`` task
executes in a child process owned by a :class:`Supervisor`, which runs
the job ``handler`` it was given and never looks inside a job.  The
supervisor's contract is the serving half of the zero-lost-requests
invariant:

* :meth:`Supervisor.execute` **always returns exactly one terminal
  record** for an accepted job (it raises only :class:`PoolStopped`, and
  only once draining has begun — which admission control prevents from
  ever meeting live traffic);
* a worker that **crashes** mid-request (segfault, OOM kill, injected
  chaos) is killed and respawned, and the request is retried on a fresh
  worker with capped exponential backoff + jitter, up to ``retries``
  resubmissions; exhaustion yields a typed ``crashed`` record;
* a worker that **blows the request deadline** is killed and respawned,
  and the request terminates immediately with a ``timeout`` record — the
  deadline is already spent, so retrying would double the damage;
* a worker whose call fails **any other way** (e.g. an unusable
  timeout) is killed and respawned, and the request terminates with a
  ``crashed`` record — the worker's pipe state is unknown, so it is
  never handed back to the pool;
* a worker found **dead while idle** is replaced before it is ever handed
  a job.

The pool is deliberately synchronous and thread-safe (the asyncio daemon
and the batch driver call :meth:`execute` from one thread per job in
flight);
``worker_factory`` is injectable so the state machine is unit-testable
with scripted fakes, no real processes involved.
"""

from __future__ import annotations

import multiprocessing
import queue
import random
import threading
import time
from typing import Callable, Dict, List, Optional

from .worker import execute_request, worker_main


class WorkerCrash(RuntimeError):
    """The worker process died before replying (transport-level fault)."""


class WorkerTimeout(RuntimeError):
    """The worker failed to reply within the wall-clock allowance."""


class PoolStopped(RuntimeError):
    """The supervisor is stopped/draining and refuses new work."""


def _pool_context():
    """Fork where available (cheap respawn; Linux, the deployment target),
    spawn elsewhere.  Workers only touch their pipe end plus freshly
    imported analysis code, so fork's inherited-state hazards don't bite."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ProcessWorker:
    """One supervised child process answering each job sent down its pipe
    with ``handler(params, level=, deadline_s=)``."""

    def __init__(self, handler: Callable[..., Dict[str, object]], chaos_enabled: bool = False):
        self.handler = handler
        self.chaos_enabled = chaos_enabled
        self._proc = None
        self._conn = None

    def start(self) -> "ProcessWorker":
        ctx = _pool_context()
        parent, child = ctx.Pipe(duplex=True)
        # The child gets the *parent* end too, purely so it can close its
        # inherited copy (fork copies every fd): otherwise a SIGKILLed
        # daemon leaves workers blocked on a pipe they themselves hold
        # open, and they never see EOF and never exit.
        self._proc = ctx.Process(
            target=worker_main,
            args=(child, self.handler, self.chaos_enabled, parent),
            daemon=True,
            name="repro-worker",
        )
        self._proc.start()
        child.close()  # the parent's copy; EOF now propagates on child death
        self._conn = parent
        return self

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def call(self, job: Dict[str, object], timeout_s: Optional[float]) -> Dict[str, object]:
        """Send one job and wait for its record (``None``: no time limit).
        Raises :class:`WorkerCrash` on death, :class:`WorkerTimeout` on deadline."""
        try:
            self._conn.send(job)
        except (BrokenPipeError, OSError) as err:
            raise WorkerCrash(f"worker pid={self.pid} pipe closed: {err}") from err
        try:
            if not self._conn.poll(timeout_s):
                raise WorkerTimeout(
                    f"worker pid={self.pid} gave no reply within {timeout_s:.3f}s"
                )
            return self._conn.recv()
        except (EOFError, OSError) as err:
            raise WorkerCrash(f"worker pid={self.pid} died mid-request: {err}") from err

    def shutdown(self, grace_s: float = 1.0) -> None:
        """Cooperative stop: sentinel, short join, then kill if stubborn."""
        try:
            self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        if self._proc is not None:
            self._proc.join(grace_s)
        self.kill()

    def kill(self) -> None:
        if self._proc is not None and self._proc.is_alive():
            self._proc.kill()
            self._proc.join(1.0)
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass


#: Statuses only the pool produces (deadline kill; death past the retries
#: or a failed call), with CLI-contract codes; serve and batch add them.
WORKER_STATUS_CODES: Dict[str, int] = {"timeout": 2, "crashed": 2}


def _terminal(status: str, error: str, attempts: int) -> Dict[str, object]:
    """A terminal record for a job that produced no analysis result."""
    return {
        "status": status,
        "error": error,
        "result": None,
        "degradation": None,
        "counters": {},
        "attempts": attempts,
    }


class Supervisor:
    """The worker-pool state machine (see module docstring).

    ``worker_factory`` must return objects with the :class:`ProcessWorker`
    interface (``start``/``call``/``kill``/``shutdown``/``alive``); the
    default builds real process workers running ``handler``.  ``sleep``
    and ``rng`` are injectable so retry/backoff behavior is deterministic
    under test.
    """

    def __init__(
        self,
        size: int,
        handler: Callable[..., Dict[str, object]] = execute_request,
        worker_factory: Optional[Callable[[], object]] = None,
        retries: int = 1,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 1.0,
        backoff_jitter: float = 0.5,
        deadline_grace_s: float = 2.0,
        chaos_enabled: bool = False,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if size < 1:
            raise ValueError("supervisor needs at least one worker")
        self.size = size
        self.retries = max(0, retries)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.backoff_jitter = backoff_jitter
        self.deadline_grace_s = deadline_grace_s
        self._factory = worker_factory or (
            lambda: ProcessWorker(handler, chaos_enabled=chaos_enabled)
        )
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._idle: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._workers: List[object] = []
        self._stopped = False
        # Lifetime telemetry (exposed via /healthz).
        self.crashes = 0
        self.respawns = 0
        self.retried = 0
        self.timeouts = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Supervisor":
        for _ in range(self.size):
            self._idle.put(self._spawn())
        return self

    def _spawn(self):
        worker = self._factory()
        worker.start()
        with self._lock:
            self._workers.append(worker)
        return worker

    def stop(self, grace_s: float = 1.0) -> None:
        """Stop admitting, wake blocked acquirers, shut every worker down.
        Callers are expected to have drained in-flight work first (the
        daemon's drain sequence does); any worker still busy is killed."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            workers = list(self._workers)
        self._idle.put(None)  # sentinel: wakes one blocked acquirer, re-queued by each
        for worker in workers:
            worker.shutdown(grace_s)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stats(self) -> Dict[str, int]:
        with self._lock:
            alive = sum(1 for w in self._workers if w.alive)
        return {
            "size": self.size,
            "alive": alive,
            "crashes": self.crashes,
            "respawns": self.respawns,
            "retries": self.retried,
            "timeouts": self.timeouts,
        }

    # -- the state machine ----------------------------------------------

    def _acquire(self):
        while True:
            if self._stopped:
                raise PoolStopped("supervisor is draining; no new work")
            worker = self._idle.get()
            if worker is None:
                self._idle.put(None)  # keep the sentinel for other waiters
                raise PoolStopped("supervisor is draining; no new work")
            if not worker.alive:
                # Died while idle (external kill / chaos): replace silently.
                self._retire(worker, respawn=True)
                continue
            return worker

    def _retire(self, worker, respawn: bool) -> None:
        worker.kill()
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
            self.crashes += 1
            should_respawn = respawn and not self._stopped
        if should_respawn:
            fresh = self._spawn()
            with self._lock:
                self.respawns += 1
            self._idle.put(fresh)

    def _backoff(self, attempt: int) -> float:
        base = min(self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1)))
        return base * (1.0 + self.backoff_jitter * self._rng.random())

    def execute(
        self,
        params: object,
        deadline_s: Optional[float],
        level: int = 0,
        chaos: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Run one job to a terminal record (never raises once started,
        except :class:`PoolStopped` while draining); ``deadline_s=None`` sets
        no wall-clock limit.  The returned record always carries ``attempts``."""
        timeout_s = None if deadline_s is None else deadline_s + self.deadline_grace_s
        attempts = 0
        while True:
            job = {
                "params": params,
                "deadline_s": deadline_s,
                "level": level,
                "attempt": attempts,
                "chaos": chaos,
            }
            attempts += 1
            worker = self._acquire()
            try:
                record = worker.call(job, timeout_s=timeout_s)
            except WorkerTimeout as err:
                # The deadline is spent; killing + reporting beats retrying.
                self._retire(worker, respawn=True)
                with self._lock:
                    self.timeouts += 1
                return _terminal(
                    "timeout",
                    f"{err} (deadline {deadline_s}s + grace); killed and respawned",
                    attempts,
                )
            except WorkerCrash as err:
                self._retire(worker, respawn=True)
                if attempts > self.retries:
                    return _terminal(
                        "crashed",
                        f"worker crashed and retries exhausted "
                        f"after {attempts} attempt(s): {err}",
                        attempts,
                    )
                with self._lock:
                    self.retried += 1
                self._sleep(self._backoff(attempts))
                continue
            except Exception as err:
                # Not a fault a retry can cure; the worker may hold a
                # half-sent job, so it is replaced rather than reused.
                self._retire(worker, respawn=True)
                return _terminal(
                    "crashed",
                    f"worker call failed ({type(err).__name__}: {err}); "
                    "killed and respawned",
                    attempts,
                )
            else:
                self._idle.put(worker)
                record["attempts"] = attempts
                return record
