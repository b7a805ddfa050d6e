"""repro.obs — tracing, metrics and profiling for the analysis pipeline.

The pipeline (parse → PFG build → fixpoint solve → client analyses →
interpreter) is instrumented at every layer, but **observability is off by
default**: instrumented code reports to no-op singletons
(:data:`~repro.obs.tracer.NULL_TRACER`, :data:`~repro.obs.metrics.NULL_METRICS`)
whose calls do nothing, so golden tests and benchmarks see near-zero
overhead.  To observe a region, install a session::

    from repro import obs

    with obs.session() as sess:
        report = optimize(source)
    print(obs.render_tree(sess.tracer, sess.metrics))   # phase-time tree
    obs.write_jsonl("profile.jsonl", sess.tracer, sess.metrics)

On the command line the same session backs ``python -m repro report FILE
--trace`` / ``--profile out.jsonl`` and ``python -m repro stats FILE``.

See ``docs/observability.md`` for the span taxonomy and the JSONL schema.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    Metrics,
    NullMetrics,
    get_metrics,
    set_metrics,
)
from .report import (
    REPORT_SCHEMA,
    ReportError,
    aggregate,
    compare_to_baseline,
    read_baseline,
    render_report,
    write_baseline,
)
from .sinks import (
    SCHEMA,
    InMemorySink,
    metric_records,
    read_jsonl,
    records,
    render_tree,
    span_records,
    write_jsonl,
)
from .tracer import NULL_TRACER, NullTracer, Span, Tracer, get_tracer, set_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "Metrics",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "ObsSession",
    "REPORT_SCHEMA",
    "ReportError",
    "SCHEMA",
    "Span",
    "Tracer",
    "aggregate",
    "compare_to_baseline",
    "get_metrics",
    "get_tracer",
    "metric_records",
    "read_baseline",
    "read_jsonl",
    "records",
    "render_report",
    "render_tree",
    "session",
    "write_baseline",
    "set_metrics",
    "set_tracer",
    "span_records",
    "write_jsonl",
]

class ObsSession:
    """The pair of live collectors installed by :func:`session`."""

    def __init__(self, tracer: Tracer, metrics: Metrics):
        self.tracer = tracer
        self.metrics = metrics

    def records(self, **meta: object):
        return records(self.tracer, self.metrics, meta or None)

    def render(self) -> str:
        return render_tree(self.tracer, self.metrics)

    def write_jsonl(self, path, **meta: object) -> int:
        return write_jsonl(path, self.tracer, self.metrics, meta or None)


@contextmanager
def session(
    tracer: Optional[Tracer] = None,
    metrics: Optional[Metrics] = None,
) -> Iterator[ObsSession]:
    """Install live collectors process-wide for the duration of the block.

    Nested sessions stack: the inner session's collectors win while it is
    active, and the outer ones are restored on exit.
    """
    tracer = tracer if tracer is not None else Tracer()
    metrics = metrics if metrics is not None else Metrics()
    prev_tracer = set_tracer(tracer)
    prev_metrics = set_metrics(metrics)
    try:
        yield ObsSession(tracer, metrics)
    finally:
        set_tracer(prev_tracer)
        set_metrics(prev_metrics)
