"""Concurrent batch-analysis driver: the scale-out layer over ``run_request``.

The per-program machinery (resource budgets, the degradation ladder,
observability) bounds and instruments **one** solve;
throughput past that point has to come from sharding independent
programs across workers — per-program solve cost is irreducible in the
worst case ("On the computational complexity of Data Flow Analysis",
PAPERS.md).  :func:`run_batch` takes a list of program files, runs the
request pipeline (:func:`repro.driver.run_request`) on each, and shards
the tasks across the worker pool ``repro serve`` runs on — a
:class:`~repro.serve.supervisor.Supervisor` (``workers > 1``) — or runs
them serially in-process (``workers == 1`` — the deterministic mode
tests and debugging want).

Guarantees, per task:

* **failure isolation** — a diverging, syntactically invalid, or
  deadlocking program, or any exception in its analysis, is *recorded*
  (status + exit-code-equivalent in the manifest, classified by
  :func:`repro.driver.classify`), never fatal to the batch; only
  batch-level usage/I-O errors abort the run;
* **fresh budget** — each task gets its own
  :class:`~repro.dataflow.budget.ResourceBudget` built from
  :class:`BatchOptions` limits, so one adversarial program cannot starve
  the rest of the fleet's allowance;
* **ladder honored** — with ``degrade=True`` (default) each task falls
  down the :mod:`repro.robust.degrade` ladder instead of failing, and
  the record carries the :class:`~repro.robust.degrade.DegradationRecord`;
* **metrics merged** — each worker runs under its own observability
  session and ships its full metrics snapshot back (counters *and*
  gauges/histograms with their sample reservoirs); the parent folds it
  in (:meth:`repro.obs.Metrics.merge`) so fleet-wide ``pfg.*`` /
  ``solve.*`` counters and latency percentiles read as if the work had
  run in-process, plus ``batch.tasks`` / ``batch.status.<status>``
  rollups.

Results stream to a ``repro-batch/1`` JSONL manifest as they complete
(:mod:`repro.batch.manifest`) and the returned :class:`BatchReport`
renders the deterministic end-of-run summary table.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..driver import STATUS_CODES, Outcome, RequestOptions, run_request
from ..obs import get_metrics, get_tracer
from ..serve.supervisor import WORKER_STATUS_CODES, Supervisor
from .manifest import ManifestWriter, batch_exit_code, render_batch_summary

#: Task status → code: the CLI's table (:data:`repro.driver.STATUS_CODES`)
#: plus the worker pool's ``timeout`` and ``crashed`` (infrastructure), so
#: a manifest row answers "what would this program have exited with?".
TASK_EXIT_CODES = {**STATUS_CODES, **WORKER_STATUS_CODES}


@dataclass(frozen=True)
class BatchOptions:
    """Per-task pipeline options (plain fields only, so one instance
    travels to every pool worker)."""

    backend: str = "bitset"
    preserved: str = "approx"
    solver: str = "stabilized"
    #: Honor the degradation ladder (``False`` = fail fast per task).
    degrade: bool = True
    #: Budget limits; each task arms a **fresh** budget from these.
    max_passes: Optional[int] = None
    deadline_s: Optional[float] = None
    #: Dynamic smoke: also interpret each analyzable program once with a
    #: seeded scheduler; a deadlock is a ``dynamic-failure`` (code 4).
    run: bool = False
    seed: int = 0
    max_loop_iters: int = 3

    def request(self) -> RequestOptions:
        return RequestOptions(
            backend=self.backend,
            preserved=self.preserved,
            solver=self.solver,
            degrade=self.degrade,
            max_passes=self.max_passes,
            deadline_s=self.deadline_s,
        )


def run_task(path: str, options: BatchOptions) -> Dict[str, object]:
    """Run the request pipeline on one program file; never raises.

    Top-level, so the pool's workers can run it.  Runs under its own
    observability session and returns a JSON-ready ``task``
    record (see :mod:`repro.batch.manifest`) whose ``counters`` snapshot
    the caller merges into its own metrics.
    """
    from .. import obs
    from ..interp import RandomScheduler, run_program

    t0 = time.perf_counter()
    with obs.session() as sess:
        try:
            source = Path(path).read_text()
        except OSError as err:
            outcome = Outcome.failure(err)
        else:
            outcome = run_request(source, options.request())
        record: Dict[str, object] = {"type": "task", "file": str(path)}
        record.update(
            outcome.summary()
            or {
                "program": outcome.program.name if outcome.program is not None else None,
                "digest": outcome.digest,
                "system": None,
                "stats": (
                    outcome.partial_stats.as_dict()
                    if outcome.partial_stats is not None
                    else None
                ),
                "anomalies": None,
                "sync_issues": None,
            }
        )
        record["degradation"] = (
            outcome.degradation.as_dict() if outcome.degradation is not None else None
        )
        record["interp"] = None
        record["attempts"] = 1  # the supervisor overrides after worker-crash retries
        if options.run and outcome.result is not None:
            scheduler = RandomScheduler(seed=options.seed, max_loop_iters=options.max_loop_iters)
            try:
                run = run_program(outcome.program, scheduler, graph=outcome.result.graph)
            except Exception as err:
                outcome.fail(err)
            else:
                record["interp"] = {
                    "steps": run.steps,
                    "deadlocked": run.deadlocked,
                    "blocked_events": list(run.blocked_events),
                }
                if run.deadlocked:
                    blocked = ", ".join(run.blocked_events)
                    outcome.status = "dynamic-failure"
                    outcome.error = f"deadlock (blocked on: {blocked})" if blocked else "deadlock"
    record["status"] = outcome.status
    record["error"] = outcome.error
    record["code"] = TASK_EXIT_CODES[outcome.status]
    record["wall_s"] = round(time.perf_counter() - t0, 6)
    state = sess.metrics.export_state()
    # ``counters`` stays a top-level field (older manifest consumers read
    # it); gauges/histograms ride in ``metrics`` for the full-fidelity
    # merge on the parent side.
    record["counters"] = state["counters"]
    record["metrics"] = {"gauges": state["gauges"], "histograms": state["histograms"]}
    return record


def _run_job(task, options: BatchOptions, path: str, level: int = 0, deadline_s=None):
    """The pool's job handler; the task's budget comes from ``options``."""
    return task(path, options)


def _pool_record(path: str, terminal: Dict[str, object]) -> Dict[str, object]:
    """Record for a task the pool ended (``timeout``, ``crashed``) from the
    supervisor's ``terminal`` record; no task body ran to completion."""
    status = str(terminal["status"])
    return {
        "type": "task",
        "file": path,
        **dict.fromkeys(("program", "digest", "system", "stats", "anomalies", "sync_issues")),
        "degradation": None,
        "interp": None,
        "status": status,
        "code": TASK_EXIT_CODES[status],
        "error": terminal["error"],
        "attempts": terminal["attempts"],
        "wall_s": 0.0,
        "counters": {},
        "metrics": {},
    }


@dataclass
class BatchReport:
    """Everything a batch run concluded, plus the exit-code aggregation."""

    records: List[Dict[str, object]]
    workers: int
    wall_s: float

    @property
    def exit_code(self) -> int:
        return batch_exit_code(self.records)

    def by_status(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for rec in self.records:
            status = str(rec.get("status"))
            out[status] = out.get(status, 0) + 1
        return dict(sorted(out.items()))

    def render_summary(self) -> str:
        return render_batch_summary(self.records, workers=self.workers)


def run_batch(
    paths: Sequence[Union[str, Path]],
    options: Optional[BatchOptions] = None,
    workers: int = 1,
    manifest_path: Optional[Union[str, Path]] = None,
    retries: int = 1,
    retry_backoff_s: float = 0.1,
    resume: bool = False,
    task_fn=None,
) -> BatchReport:
    """Analyze every program in ``paths``; see the module docstring.

    ``workers == 1`` runs serially in-process (deterministic record
    order); ``workers > 1`` dispatches from ``workers`` threads onto a
    :class:`~repro.serve.supervisor.Supervisor` of ``workers`` processes,
    and records arrive in completion order.  ``manifest_path`` streams
    the ``repro-batch/1`` JSONL manifest as results land.

    **Crash retry** (pooled): a task whose *worker process* died
    (``run_task`` itself never raises) is retried on a respawned worker
    up to ``retries`` times, after a capped backoff starting at
    ``retry_backoff_s``, before a terminal ``crashed`` record is written;
    tasks on other workers are not touched.  A task still running after
    ``options.deadline_s`` plus the supervisor's grace is killed and
    recorded ``timeout``.  Every task record carries ``attempts``.

    **Resume**: with ``resume=True`` and an existing ``manifest_path``,
    tasks that already have a terminal record in the manifest are skipped
    and only the missing ones run; new records are *appended* to the same
    manifest and the closing summary covers old and new together — a
    crash-interrupted campaign picks up where it left off.

    ``task_fn`` overrides the per-task entry point (a top-level callable
    with :func:`run_task`'s signature) — a fault-injection hook for tests.
    """
    from .manifest import load_resume_records

    options = options if options is not None else BatchOptions()
    paths = [str(p) for p in paths]
    task = task_fn if task_fn is not None else run_task
    tracer = get_tracer()
    metrics = get_metrics()

    prior_records: List[Dict[str, object]] = []
    if resume:
        if manifest_path is None:
            raise ValueError("resume=True requires a manifest_path")
        prior_records = load_resume_records(manifest_path)
        done = {str(rec.get("file")) for rec in prior_records}
        paths = [p for p in paths if p not in done]

    writer = (
        ManifestWriter(
            manifest_path,
            workers=workers,
            inputs=len(paths),
            options=asdict(options),
            append=bool(prior_records),
        )
        if manifest_path is not None
        else None
    )
    records: List[Dict[str, object]] = []
    t0 = time.perf_counter()

    def finish(record: Dict[str, object]) -> None:
        records.append(record)
        if writer is not None:
            writer.write_task(record)
        if metrics.enabled:
            metrics.inc("batch.tasks")
            metrics.inc(f"batch.status.{record['status']}")
            if record["attempts"] > 1:
                metrics.inc("batch.retries", record["attempts"] - 1)
            worker_metrics = record.get("metrics") or {}
            metrics.merge(
                {
                    "counters": record.get("counters") or {},
                    "gauges": worker_metrics.get("gauges") or {},
                    "histograms": worker_metrics.get("histograms") or {},
                }
            )

    try:
        with tracer.span("batch", workers=workers, tasks=len(paths)):
            if workers <= 1:
                for path in paths:
                    finish(task(path, options))
            else:
                supervisor = Supervisor(
                    workers,
                    handler=partial(_run_job, task, options),
                    retries=retries,
                    backoff_base_s=retry_backoff_s,
                ).start()
                try:
                    with ThreadPoolExecutor(workers, thread_name_prefix="batch") as dispatch:
                        futures = {
                            dispatch.submit(supervisor.execute, path, options.deadline_s): path
                            for path in paths
                        }
                        for future in as_completed(futures):
                            record = future.result()
                            if record["status"] in WORKER_STATUS_CODES:
                                record = _pool_record(futures[future], record)
                            finish(record)
                finally:
                    supervisor.stop()
        wall = time.perf_counter() - t0
        all_records = prior_records + records
        if writer is not None:
            writer.write_summary(all_records, wall)
    finally:
        if writer is not None:
            writer.close()
    return BatchReport(records=prior_records + records, workers=workers, wall_s=wall)
