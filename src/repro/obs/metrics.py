"""Metrics registry: counters, gauges and histograms.

Instruments in the solver/interpreter hot paths follow two rules so the
disabled default costs (almost) nothing:

* ask for the process-current registry once (``m = get_metrics()``) and
  hoist per-iteration work behind ``m.enabled``;
* prefer one post-hoc ``inc(name, total)`` over N live ``inc(name)``
  calls when an existing counter (e.g. ``SolveStats``) already has the
  total.

Names are dotted paths (``solve.node_updates``, ``interp.steps``); the
per-order solver metrics interpolate the order name
(``solve.rpo.passes``).  :data:`NULL_METRICS` is the disabled singleton:
every mutator is a no-op and every accessor returns shared inert
instruments.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
    "RESERVOIR_SIZE",
    "get_metrics",
    "set_metrics",
]

#: Bound on stored histogram samples.  Beyond this many observations the
#: histogram keeps a uniform random sample (reservoir sampling), so
#: percentiles stay estimable at O(1) memory however long the run.
RESERVOIR_SIZE = 512

#: Fixed reservoir seed: the kept sample is a pure function of the
#: observation sequence, so identical runs report identical percentiles.
_RESERVOIR_SEED = 0x5EED


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-set value, with the observed maximum kept alongside."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value: float = 0.0
        self.max: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value


class Histogram:
    """Streaming summary plus a bounded sample reservoir.

    ``count``/``total``/``min``/``max`` are exact over every observation;
    percentiles come from a :data:`RESERVOIR_SIZE`-bounded uniform sample
    (Vitter's Algorithm R with a fixed per-instance seed, so the reservoir
    — and hence every reported percentile — is a deterministic function of
    the observation sequence)."""

    __slots__ = ("count", "total", "min", "max", "_samples", "_rng")

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._rng = random.Random(_RESERVOIR_SEED)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < RESERVOIR_SIZE:
            self._samples.append(value)
        else:
            # Algorithm R: the i-th observation replaces a random slot
            # with probability RESERVOIR_SIZE/i (count was just bumped).
            j = self._rng.randrange(self.count)
            if j < RESERVOIR_SIZE:
                self._samples[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile of the sampled values, ``None`` when no
        observation has been recorded.  ``q`` in [0, 100]."""
        if not self._samples:
            return None
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q!r}")
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def samples(self) -> List[float]:
        """The current reservoir, sorted (a deterministic export order —
        reservoir slots are replacement-order-dependent, values are not)."""
        return sorted(self._samples)

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold an exported histogram snapshot (see
        :meth:`Metrics.export_state`) into this instrument.

        Exact fields combine exactly; the two reservoirs concatenate and,
        when over :data:`RESERVOIR_SIZE`, downsample *deterministically*
        (sorted, evenly spaced) rather than re-randomizing — merged
        percentiles are a pure function of the merged inputs."""
        other_count = int(state.get("count", 0))
        if not other_count:
            return
        self.count += other_count
        self.total += float(state.get("total", 0.0))
        other_min = state.get("min")
        other_max = state.get("max")
        if other_min is not None and (self.min is None or other_min < self.min):
            self.min = float(other_min)
        if other_max is not None and (self.max is None or other_max > self.max):
            self.max = float(other_max)
        combined = sorted(self._samples)
        combined.extend(float(v) for v in state.get("samples", ()))
        combined.sort()
        n = len(combined)
        if n > RESERVOIR_SIZE:
            combined = [combined[(i * n) // RESERVOIR_SIZE] for i in range(RESERVOIR_SIZE)]
        self._samples = combined


class Metrics:
    """Name → instrument registry; instruments are created on first use."""

    enabled: bool = True

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (create on demand) ------------------------

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        return h

    # -- convenience mutators -------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def merge_counters(self, counters: Dict[str, int]) -> None:
        """Add a ``name → value`` snapshot into this registry's counters.

        This is the cross-process aggregation hook: batch workers export
        their per-task counter totals (plain dicts travel over the
        process-pool pickle boundary; live ``Metrics`` objects do not)
        and the parent session folds them in, so fleet-wide ``cache.*``
        (graph, gen/kill and serve-record memo hits) / ``solve.*``
        counters read as if the work had run in-process.
        """
        for name, value in counters.items():
            if value:
                self.counter(name).inc(int(value))

    def merge(self, state: Dict[str, Dict[str, object]]) -> None:
        """Fold a full exported snapshot (:meth:`export_state`) into this
        registry: counters add, gauges take the incoming value (last write
        wins) with max-of-max, histograms combine exactly and merge their
        sample reservoirs deterministically.

        The complete cross-process story — :meth:`merge_counters` alone
        drops worker gauge/histogram telemetry on the floor."""
        self.merge_counters({k: int(v) for k, v in state.get("counters", {}).items()})
        for name, snap in state.get("gauges", {}).items():
            g = self.gauge(name)
            g.value = float(snap["value"])
            other_max = float(snap.get("max", snap["value"]))
            if other_max > g.max:
                g.max = other_max
        for name, snap in state.get("histograms", {}).items():
            self.histogram(name).merge_state(snap)

    # -- export ---------------------------------------------------------

    def export_state(self) -> Dict[str, Dict[str, object]]:
        """JSON/pickle-safe snapshot for :meth:`merge` on another registry
        (the worker half of cross-process aggregation)."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items()) if c.value},
            "gauges": {
                k: {"value": g.value, "max": g.max} for k, g in sorted(self.gauges.items())
            },
            "histograms": {
                k: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "samples": h.samples(),
                }
                for k, h in sorted(self.histograms.items())
                if h.count
            },
        }

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Flat snapshot keyed by instrument kind, for summaries/tests."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: {"value": g.value, "max": g.max} for k, g in sorted(self.gauges.items())},
            "histograms": {
                k: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "mean": h.mean,
                    "p50": h.percentile(50),
                    "p90": h.percentile(90),
                    "p99": h.percentile(99),
                }
                for k, h in sorted(self.histograms.items())
            },
        }


class _NullCounter(Counter):
    def inc(self, n: int = 1) -> None:
        return None


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        return None


class _NullHistogram(Histogram):
    def observe(self, value: float) -> None:
        return None


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetrics(Metrics):
    """Disabled registry: mutators no-op, accessors hand out shared inert
    instruments, nothing is ever recorded."""

    enabled = False

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return _NULL_HISTOGRAM

    def inc(self, name: str, n: int = 1) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def merge_counters(self, counters: Dict[str, int]) -> None:
        return None

    def merge(self, state: Dict[str, Dict[str, object]]) -> None:
        return None


NULL_METRICS = NullMetrics()

_current: Metrics = NULL_METRICS


def get_metrics() -> Metrics:
    """The registry instrumented code should report to (never ``None``)."""
    return _current


def set_metrics(metrics: Optional[Metrics]) -> Metrics:
    """Install ``metrics`` as process-current (``None`` restores the no-op);
    returns the previously installed registry."""
    global _current
    previous = _current
    _current = metrics if metrics is not None else NULL_METRICS
    return previous
