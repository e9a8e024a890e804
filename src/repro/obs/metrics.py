"""The process's one recorder: labelled counters and phase timers.

Counters are addressed by a name plus an optional set of string labels
— the conventional shape most metric backends (Prometheus, statsd tag
dialects) expect, kept dependency-free here.  Phases accumulate
wall-clock seconds and calls per named phase (mobility, cores,
schedule, dvs, power), optionally attributed to one operational mode:
``phase("schedule", mode="gsm")`` keys its entry ``(name, mode)``.
:data:`repro.engine.profile.PROFILER` reads the phase table as
``{phase key: (seconds, calls)}``.

One process-global :data:`REGISTRY` instance holds both.  Code on the
hot path records into its own process's registry; a process working on
another's behalf ships :meth:`MetricsRegistry.delta_since` back — a
pool worker with every result chunk, a campaign worker with every job
— and the receiving side folds it in with :meth:`MetricsRegistry.merge`.
The registry is therefore always a complete account of the work done
on behalf of this process, regardless of where it actually ran.
Counters and phase totals only grow: a delta subtracts, a merge adds.

The registry is deliberately lock-free: every process in this codebase
records from a single thread, and cross-process aggregation happens
through explicit snapshot/delta/merge calls.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union

#: Identity of one counter series: name + sorted ``(label, value)`` pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Phase identity: a bare name, or ``(name, mode)`` for mode-attributed
#: accumulation.
PhaseKey = Union[str, Tuple[str, str]]

#: Accumulated phase data: key -> (seconds, calls).
PhaseTotals = Dict[PhaseKey, Tuple[float, int]]

#: A snapshot (or delta) of a registry: ``{"counters": {MetricKey:
#: value}, "phases": PhaseTotals}``.
MetricsSnapshot = Dict[str, Dict[Any, Any]]


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


def phase_delta(
    current: Mapping[PhaseKey, Tuple[float, int]],
    base: Mapping[PhaseKey, Tuple[float, int]],
) -> PhaseTotals:
    """Phase work in ``current`` beyond ``base``."""
    delta: PhaseTotals = {}
    for key, (seconds, calls) in current.items():
        base_seconds, base_calls = base.get(key, (0.0, 0))
        extra_seconds = seconds - base_seconds
        extra_calls = calls - base_calls
        if extra_calls > 0 or extra_seconds > 1e-12:
            delta[key] = (extra_seconds, extra_calls)
    return delta


class MetricsRegistry:
    """Labelled counters and per-phase seconds and calls."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, float] = {}
        self._seconds: Dict[PhaseKey, float] = {}
        self._calls: Dict[PhaseKey, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> float:
        """Increment a counter; returns its new value."""
        return self.add(metric_key(name, labels), amount)

    def add(self, key: MetricKey, amount: float = 1.0) -> float:
        """:meth:`inc` for a series key resolved once by the caller."""
        value = self._counters.get(key, 0.0) + amount
        self._counters[key] = value
        return value

    @contextmanager
    def phase(
        self, name: str, mode: Optional[str] = None
    ) -> Iterator[None]:
        """Time one phase execution (re-entrant accumulation).

        Two ``perf_counter`` calls per phase — cheap enough to stay
        enabled unconditionally.  An exception still records the call.
        """
        key: PhaseKey = name if mode is None else (name, mode)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self._seconds[key] = self._seconds.get(key, 0.0) + elapsed
            self._calls[key] = self._calls.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        return self._counters.get(metric_key(name, labels), 0.0)

    def phase_totals(self) -> PhaseTotals:
        """The phase table, safe to keep across further accumulation."""
        calls = self._calls
        return {key: (seconds, calls[key]) for key, seconds in self._seconds.items()}

    # ------------------------------------------------------------------
    # Snapshot / delta / merge
    # ------------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Current state, safe to keep across further accumulation."""
        return {"counters": dict(self._counters), "phases": self.phase_totals()}

    def delta_since(self, base: MetricsSnapshot) -> MetricsSnapshot:
        """Accumulation that happened after ``base`` was snapshotted."""
        base_counters = base.get("counters", {})
        counters = {}
        for key, value in self._counters.items():
            extra = value - base_counters.get(key, 0.0)
            if extra != 0.0:
                counters[key] = extra
        return {
            "counters": counters,
            "phases": phase_delta(self.phase_totals(), base.get("phases", {})),
        }

    def merge(self, delta: MetricsSnapshot) -> None:
        """Fold another registry's snapshot (or a delta) into this one."""
        counters = self._counters
        for key, value in delta.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value
        for key, (seconds, calls) in delta.get("phases", {}).items():
            self._seconds[key] = self._seconds.get(key, 0.0) + seconds
            self._calls[key] = self._calls.get(key, 0) + calls

    def reset(self) -> None:
        """Drop every figure.

        A forked worker resets on start, so it ships nothing it
        inherited from its parent.
        """
        self._counters.clear()
        self._seconds.clear()
        self._calls.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dict(
        self, since: Optional[MetricsSnapshot] = None
    ) -> Dict[str, Any]:
        """JSON-serialisable counters, all or those added since ``since``.

        ``run_summary.json``'s ``metrics`` block; its phase time is the
        ``perf`` block's phase tables, so the dump leaves phases out.
        """
        state = self.snapshot() if since is None else self.delta_since(since)
        return {
            "counters": {
                format_key(key): value
                for key, value in sorted(state["counters"].items())
            }
        }


#: The process-global registry all instrumentation records into.
REGISTRY = MetricsRegistry()
