"""A lightweight process-global metrics registry.

Counters, gauges and histograms, each addressed by a name plus an
optional set of string labels — the conventional shape most metric
backends (Prometheus, statsd tag dialects) expect, kept dependency-free
here.  One process-global :data:`REGISTRY` instance plays the same role
:data:`repro.engine.profile.PROFILER` plays for phase timers: code on
the hot path records into its own process's registry, pool workers ship
:meth:`MetricsRegistry.delta_since` deltas back with every result
chunk, and the receiving side folds them in with
:meth:`MetricsRegistry.merge`.  The registry is therefore always a
complete account of the work done on behalf of this process, regardless
of where it actually ran.

Merge semantics per instrument:

* **counters** — monotonically increasing; deltas subtract, merges add.
* **gauges** — last-write-wins point-in-time values; a delta carries the
  current value whenever it differs from the base, a merge overwrites.
* **histograms** — count/sum/bucket counts subtract and add like
  counters; ``min``/``max`` travel as current values and merge via
  ``min()``/``max()``.

A gauge that changes far more often than anyone reads it can name its
*source* instead (:meth:`MetricsRegistry.set_gauge_source`): the
registry calls the source and stores the value when it is next read —
by a snapshot, a delta, a merge, an export or :meth:`gauge_value` — so
every read sees the value a write on every change would have left.

The registry is deliberately lock-free: every process in this codebase
records from a single thread, and cross-process aggregation happens
through explicit snapshot/delta/merge calls.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Tuple

#: Identity of one metric series: name + sorted ``(label, value)`` pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Default histogram bucket upper bounds (seconds-oriented).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.025,
    0.1,
    0.5,
    2.5,
    10.0,
    60.0,
)


def metric_key(name: str, labels: Mapping[str, Any]) -> MetricKey:
    """Canonical (hashable, order-independent) series identity."""
    return (
        name,
        tuple(sorted((str(k), str(v)) for k, v in labels.items())),
    )


def format_key(key: MetricKey) -> str:
    """``name{a=1,b=x}`` rendering used for JSON exports."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class HistogramData:
    """Aggregated observations of one histogram series."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    #: One count per bucket bound, plus a final overflow bucket.
    buckets: List[int] = field(default_factory=list)

    def observe(self, value: float, bounds: Tuple[float, ...]) -> None:
        if not self.buckets:
            self.buckets = [0] * (len(bounds) + 1)
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        for index, bound in enumerate(bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
            "buckets": list(self.buckets),
        }


#: A snapshot (or delta) of a registry's complete state.
MetricsSnapshot = Dict[str, Dict[MetricKey, Any]]


class MetricsRegistry:
    """Counters / gauges / histograms with snapshot-delta-merge."""

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, HistogramData] = {}
        # Gauges whose value is read from their source at the next read.
        self._sources: Dict[MetricKey, Callable[[], float]] = {}
        self._paused = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Suppress all recording inside the block (nestable).

        For *replayed* work: the speculation predictor re-runs the
        breeding stages to forecast the next generation, and those
        stages meter themselves — without suppression every speculated
        generation would double-count ``ga_*`` counters.  Reads,
        snapshots and merges stay live; only ``inc`` / ``set_gauge`` /
        ``set_gauge_source`` / ``observe`` become no-ops.  A pending
        gauge source is read on entry, so the block's work cannot leak
        into the value it publishes.
        """
        self._publish()
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> float:
        """Increment a counter; returns its new value."""
        return self.add(metric_key(name, labels), amount)

    def add(self, key: MetricKey, amount: float = 1.0) -> float:
        """:meth:`inc` for a series key resolved once by the caller."""
        if self._paused:
            return self._counters.get(key, 0.0)
        value = self._counters.get(key, 0.0) + amount
        self._counters[key] = value
        return value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self.set_gauge_key(metric_key(name, labels), value)

    def set_gauge_key(self, key: MetricKey, value: float) -> None:
        """:meth:`set_gauge` for a series key resolved once by the caller."""
        if self._paused:
            return
        if self._sources:
            self._sources.pop(key, None)
        self._gauges[key] = float(value)

    def set_gauge_source(
        self, key: MetricKey, source: Callable[[], float]
    ) -> None:
        """Let gauge ``key`` read ``float(source())`` at the next read.

        For a gauge that would otherwise be rewritten on every change
        of its value: the writer registers where the value lives, and
        the registry stores it once, before the next snapshot, delta,
        merge, export or :meth:`gauge_value`.  A later write to the
        same gauge replaces the source; a paused registry ignores it.
        The registry holds ``source`` (and what it refers to) until
        the next read or a later write to the gauge.
        """
        if self._paused:
            return
        self._sources[key] = source

    def _publish(self) -> None:
        """Store every pending gauge source's value (before a read)."""
        sources = self._sources
        if sources:
            gauges = self._gauges
            for key, source in sources.items():
                gauges[key] = float(source())
            sources.clear()

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one histogram observation."""
        if self._paused:
            return
        key = metric_key(name, labels)
        data = self._histograms.get(key)
        if data is None:
            data = self._histograms[key] = HistogramData()
        data.observe(float(value), self.buckets)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        return self._counters.get(metric_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels: Any) -> float:
        self._publish()
        return self._gauges.get(metric_key(name, labels), 0.0)

    def histogram_data(self, name: str, **labels: Any) -> HistogramData:
        return self._histograms.get(
            metric_key(name, labels), HistogramData()
        )

    # ------------------------------------------------------------------
    # Snapshot / delta / merge (the PhaseProfiler pattern)
    # ------------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Current state, safe to keep across further accumulation."""
        self._publish()
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                key: HistogramData(
                    count=data.count,
                    total=data.total,
                    minimum=data.minimum,
                    maximum=data.maximum,
                    buckets=list(data.buckets),
                )
                for key, data in self._histograms.items()
            },
        }

    def delta_since(self, base: MetricsSnapshot) -> MetricsSnapshot:
        """Accumulation that happened after ``base`` was snapshotted."""
        self._publish()
        base_counters = base.get("counters", {})
        base_gauges = base.get("gauges", {})
        base_histograms = base.get("histograms", {})
        counters = {}
        for key, value in self._counters.items():
            extra = value - base_counters.get(key, 0.0)
            if extra != 0.0:
                counters[key] = extra
        gauges = {
            key: value
            for key, value in self._gauges.items()
            if base_gauges.get(key) != value
        }
        histograms = {}
        for key, data in self._histograms.items():
            prior = base_histograms.get(key)
            if prior is None:
                prior = HistogramData()
            extra_count = data.count - prior.count
            if extra_count <= 0:
                continue
            prior_buckets = prior.buckets or [0] * len(data.buckets)
            histograms[key] = HistogramData(
                count=extra_count,
                total=data.total - prior.total,
                minimum=data.minimum,
                maximum=data.maximum,
                buckets=[
                    current - before
                    for current, before in zip(
                        data.buckets, prior_buckets
                    )
                ],
            )
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge(self, delta: MetricsSnapshot) -> None:
        """Fold another registry's snapshot (or a delta) into this one."""
        # Pending local values first: the merged gauges are later writes.
        self._publish()
        for key, value in delta.get("counters", {}).items():
            self._counters[key] = self._counters.get(key, 0.0) + value
        for key, value in delta.get("gauges", {}).items():
            self._gauges[key] = value
        for key, data in delta.get("histograms", {}).items():
            mine = self._histograms.get(key)
            if mine is None:
                mine = self._histograms[key] = HistogramData()
            if not mine.buckets:
                mine.buckets = [0] * len(data.buckets)
            mine.count += data.count
            mine.total += data.total
            mine.minimum = min(mine.minimum, data.minimum)
            mine.maximum = max(mine.maximum, data.maximum)
            for index, count in enumerate(data.buckets):
                mine.buckets[index] += count

    def reset(self) -> None:
        """Drop every figure, pending gauge sources included.

        A forked worker resets on start, so it publishes nothing it
        inherited from its parent.
        """
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._sources.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable dump (used by ``run_summary.json``)."""
        self._publish()
        return {
            "counters": {
                format_key(key): value
                for key, value in sorted(self._counters.items())
            },
            "gauges": {
                format_key(key): value
                for key, value in sorted(self._gauges.items())
            },
            "histograms": {
                format_key(key): data.to_dict()
                for key, data in sorted(self._histograms.items())
            },
        }


#: The process-global registry all instrumentation records into.
REGISTRY = MetricsRegistry()
