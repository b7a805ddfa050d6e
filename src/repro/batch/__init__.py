"""repro.batch — concurrent batch analysis over many programs.

The scale-out layer: shard independent program files across the
supervised worker pool ``repro serve`` runs on, run the request pipeline
(``repro.driver.run_request``) per program with per-task budgets and the
degradation ladder, stream a ``repro-batch/1`` JSONL manifest, and merge
per-worker observability counters into the parent session.  Exposed on
the command line as ``python -m repro batch``; see ``docs/batch.md``.

Quickstart::

    from repro.batch import BatchOptions, run_batch

    report = run_batch(
        ["a.pcf", "b.pcf"],
        BatchOptions(max_passes=200, run=True),
        workers=4,
        manifest_path="batch.jsonl",
    )
    print(report.render_summary())
    assert report.exit_code == 0
"""

from .driver import (
    TASK_EXIT_CODES,
    BatchOptions,
    BatchReport,
    run_batch,
    run_task,
)
from .manifest import (
    SCHEMA,
    ManifestWriter,
    batch_exit_code,
    load_resume_records,
    read_manifest,
    render_batch_summary,
    summary_record,
)

__all__ = [
    "TASK_EXIT_CODES",
    "BatchOptions",
    "BatchReport",
    "run_batch",
    "run_task",
    "SCHEMA",
    "ManifestWriter",
    "batch_exit_code",
    "load_resume_records",
    "read_manifest",
    "render_batch_summary",
    "summary_record",
]
