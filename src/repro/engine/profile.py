"""Lightweight perf instrumentation for the evaluation hot path.

A :class:`PhaseProfiler` accumulates wall-clock seconds and call counts
per named phase (mobility, cores, schedule, dvs, power).  The module
keeps one process-global instance, :data:`PROFILER`, that the evaluator
records into; worker processes each accumulate into their own copy and
ship deltas back with every result chunk, so the synthesizer can merge a
complete picture into :class:`PerfStats` regardless of where candidates
were evaluated.

Phases can additionally be attributed to one *operational mode*
(``PROFILER.phase("schedule", mode="gsm")``): per-mode buckets travel
through the same snapshot/delta/merge machinery (keys become
``(name, mode)`` tuples) and :class:`PerfStats` derives both the
aggregate per-phase totals and the per-mode breakdown from them, so the
mode buckets of a phase always sum exactly to its aggregate.  Work that
spans all modes at once (core allocation, the power model) is recorded
without a mode and lands in the reserved :data:`SHARED_MODE` bucket.

The timers are two ``perf_counter`` calls per phase — cheap enough to
stay enabled unconditionally.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

#: Phase identity: a bare name, or ``(name, mode)`` for mode-attributed
#: accumulation.
PhaseKey = Union[str, Tuple[str, str]]

#: A snapshot/delta of accumulated phase data: key -> (seconds, calls).
PhaseTotals = Dict[PhaseKey, Tuple[float, int]]

#: Pseudo-mode for phase work that spans all operational modes at once.
SHARED_MODE = "*"


def split_phase_key(key: PhaseKey) -> Tuple[str, Optional[str]]:
    """``(name, mode)`` of a phase key (mode ``None`` when unattributed)."""
    if isinstance(key, tuple):
        return key[0], key[1]
    return key, None


class PhaseProfiler:
    """Accumulates (seconds, calls) per named phase."""

    __slots__ = ("_seconds", "_calls")

    def __init__(self) -> None:
        self._seconds: Dict[PhaseKey, float] = {}
        self._calls: Dict[PhaseKey, int] = {}

    @contextmanager
    def phase(
        self, name: str, mode: Optional[str] = None
    ) -> Iterator[None]:
        """Time one phase execution (re-entrant accumulation)."""
        key: PhaseKey = name if mode is None else (name, mode)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self._seconds[key] = self._seconds.get(key, 0.0) + elapsed
            self._calls[key] = self._calls.get(key, 0) + 1

    def add(
        self,
        name: str,
        seconds: float,
        calls: int = 1,
        mode: Optional[str] = None,
    ) -> None:
        """Record an externally measured phase duration."""
        key: PhaseKey = name if mode is None else (name, mode)
        self._seconds[key] = self._seconds.get(key, 0.0) + seconds
        self._calls[key] = self._calls.get(key, 0) + calls

    def reset(self) -> None:
        self._seconds.clear()
        self._calls.clear()

    def snapshot(self) -> PhaseTotals:
        """Current totals, safe to keep across further accumulation."""
        return {
            key: (self._seconds[key], self._calls[key])
            for key in self._seconds
        }

    def delta_since(self, base: PhaseTotals) -> PhaseTotals:
        """Accumulation that happened after ``base`` was snapshotted."""
        delta: PhaseTotals = {}
        for key, seconds in self._seconds.items():
            base_seconds, base_calls = base.get(key, (0.0, 0))
            extra_seconds = seconds - base_seconds
            extra_calls = self._calls[key] - base_calls
            if extra_calls > 0 or extra_seconds > 1e-12:
                delta[key] = (extra_seconds, extra_calls)
        return delta

    def merge(self, totals: Mapping[PhaseKey, Tuple[float, int]]) -> None:
        """Fold another profiler's totals (or a delta) into this one."""
        for key, (seconds, calls) in totals.items():
            name, mode = split_phase_key(key)
            self.add(name, seconds, calls, mode=mode)


#: The process-global profiler the evaluator records into.
PROFILER = PhaseProfiler()


@dataclass
class PerfStats:
    """Per-run performance summary, exposed on ``SynthesisResult.perf``.

    Attributes
    ----------
    phase_seconds / phase_calls:
        Accumulated evaluator phase timings (mobility, cores, schedule,
        dvs, power) across the main process and all pool workers.
    mode_phase_seconds / mode_phase_calls:
        The same timings split per operational mode
        (``phase -> mode -> value``).  Phases that run once across all
        modes appear under the :data:`SHARED_MODE` (``"*"``) bucket;
        per phase, the mode buckets sum exactly to the aggregate.
    evaluations:
        Full candidate evaluations actually performed (cache misses).
    cache_hits:
        Evaluations answered from the per-genome result cache.
    dedup_hits:
        Population slots collapsed by per-generation deduplication
        before they ever reached the cache or the pool.
    wall_time:
        Total optimisation wall-clock seconds.
    jobs:
        Configured worker count (1 = in-process serial evaluation).
    batches:
        Generation batches dispatched to the pool.
    parallel_evaluations:
        Evaluations that ran inside pool workers.
    pool_busy_seconds:
        Summed wall-clock seconds workers spent evaluating chunks.
    pool_workers:
        Worker processes actually placed in service (0 when no pool was
        ever created — including runs configured with ``jobs > 1``
        whose pool failed at creation).
    pool_service_seconds:
        Wall-clock seconds the pool was in service (creation until
        close, death or fallback).  Kept as the back-compat denominator
        basis of :attr:`pool_utilisation` for runs recorded before
        dispatch windows existed, so a mid-run serial fallback stops
        accruing capacity instead of reporting nonsense utilisation.
    pool_dispatch_seconds:
        Wall-clock seconds pool work was actually *outstanding* — the
        sum of per-batch dispatch windows (submit until the last result
        landed).  The preferred denominator basis of
        :attr:`pool_utilisation`: a pool idling between generations
        (GA bookkeeping, cache-hot batches that never dispatch) no
        longer dilutes the figure.
    pool_steals:
        Tasks workers pulled beyond an even static split — per batch,
        ``sum over workers of max(0, tasks_taken − ceil(total / N))``.
        Zero under the barrier pool's static chunking; positive counts
        are the work-stealing dynamic balancing paying off.
    pool_fallbacks:
        Pool failures that degraded the run to in-process evaluation.
    inprocess_evaluations / inprocess_eval_seconds:
        Evaluations (and their wall-clock) run in-process by the
        parallel evaluator — tiny batches below the dispatch threshold
        and post-fallback batches.  Booked separately from
        :attr:`pool_busy_seconds` so cache-hot late generations cannot
        inflate :attr:`pool_utilisation`.
    mode_cache_hits / mode_cache_misses / mode_cache_evictions:
        Per-mode stage-result cache activity of the incremental
        evaluation pipeline (:mod:`repro.eval`), summed over the main
        process and all pool workers via the run's metric delta.
    speculation_issued / speculation_hits / speculation_discards:
        Speculative next-generation evaluation activity on the async
        pool: predicted genomes dispatched ahead of their batch, batch
        slots served from the speculation buffer, and buffered
        predictions abandoned at run end.  All zero when
        ``SynthesisConfig.speculative`` is off or no async pool ran.
    """

    phase_seconds: Dict[str, float] = field(default_factory=dict)
    phase_calls: Dict[str, int] = field(default_factory=dict)
    mode_phase_seconds: Dict[str, Dict[str, float]] = field(
        default_factory=dict
    )
    mode_phase_calls: Dict[str, Dict[str, int]] = field(
        default_factory=dict
    )
    evaluations: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    wall_time: float = 0.0
    jobs: int = 1
    batches: int = 0
    parallel_evaluations: int = 0
    pool_busy_seconds: float = 0.0
    pool_workers: int = 0
    pool_service_seconds: float = 0.0
    pool_dispatch_seconds: float = 0.0
    pool_steals: int = 0
    pool_fallbacks: int = 0
    inprocess_evaluations: int = 0
    inprocess_eval_seconds: float = 0.0
    mode_cache_hits: int = 0
    mode_cache_misses: int = 0
    mode_cache_evictions: int = 0
    speculation_issued: int = 0
    speculation_hits: int = 0
    speculation_discards: int = 0

    @property
    def evaluations_per_second(self) -> float:
        if self.wall_time <= 0:
            return 0.0
        return self.evaluations / self.wall_time

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of evaluation requests served without evaluating."""
        served = self.evaluations + self.cache_hits + self.dedup_hits
        if served == 0:
            return 0.0
        return (self.cache_hits + self.dedup_hits) / served

    @property
    def mode_cache_hit_rate(self) -> float:
        """Fraction of per-mode stage lookups served from the cache."""
        looked_up = self.mode_cache_hits + self.mode_cache_misses
        if looked_up == 0:
            return 0.0
        return self.mode_cache_hits / looked_up

    @property
    def speculation_hit_rate(self) -> float:
        """Fraction of speculative dispatches a later batch confirmed.

        Exact-replay prediction (``speculation_depth=1``) confirms
        everything the run actually needed; unconfirmed leftovers at
        run end (convergence struck, or deeper heuristic probes) are
        the discard side of the ledger.
        """
        if self.speculation_issued == 0:
            return 0.0
        return self.speculation_hits / self.speculation_issued

    @property
    def pool_utilisation(self) -> float:
        """Worker busy-time as a fraction of the pool's *working* capacity.

        Capacity is ``pool_dispatch_seconds × pool_workers`` — the
        workers genuinely in service, for the time pool work was
        actually outstanding.  Time the pool sat idle between
        generations (GA bookkeeping, batches answered entirely from
        cache) is not capacity the evaluator could have used, so it no
        longer dilutes the figure.  Runs recorded before dispatch
        windows existed fall back to the old whole-service-window
        basis; a run that never had a pool reports 0.
        """
        window = self.pool_dispatch_seconds
        if window <= 0:
            window = self.pool_service_seconds
        capacity = window * self.pool_workers
        if capacity <= 0:
            return 0.0
        return self.pool_busy_seconds / capacity

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (used by the benchmark harness)."""
        return {
            "phase_seconds": dict(self.phase_seconds),
            "phase_calls": dict(self.phase_calls),
            "mode_phase_seconds": {
                phase: dict(modes)
                for phase, modes in self.mode_phase_seconds.items()
            },
            "mode_phase_calls": {
                phase: dict(modes)
                for phase, modes in self.mode_phase_calls.items()
            },
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "wall_time": self.wall_time,
            "evaluations_per_second": self.evaluations_per_second,
            "jobs": self.jobs,
            "batches": self.batches,
            "parallel_evaluations": self.parallel_evaluations,
            "pool_utilisation": self.pool_utilisation,
            "pool_busy_seconds": self.pool_busy_seconds,
            "pool_workers": self.pool_workers,
            "pool_service_seconds": self.pool_service_seconds,
            "pool_dispatch_seconds": self.pool_dispatch_seconds,
            "pool_steals": self.pool_steals,
            "pool_fallbacks": self.pool_fallbacks,
            "inprocess_evaluations": self.inprocess_evaluations,
            "inprocess_eval_seconds": self.inprocess_eval_seconds,
            "mode_cache_hits": self.mode_cache_hits,
            "mode_cache_misses": self.mode_cache_misses,
            "mode_cache_evictions": self.mode_cache_evictions,
            "mode_cache_hit_rate": self.mode_cache_hit_rate,
            "speculation_issued": self.speculation_issued,
            "speculation_hits": self.speculation_hits,
            "speculation_discards": self.speculation_discards,
            "speculation_hit_rate": self.speculation_hit_rate,
        }

    def merge_phase_totals(
        self, totals: Mapping[PhaseKey, Tuple[float, int]]
    ) -> None:
        """Fold a :class:`PhaseProfiler` snapshot/delta into this summary.

        Mode-attributed keys feed both the aggregate per-phase totals
        and the per-mode breakdown, which keeps the two views exactly
        consistent by construction.
        """
        for key, (seconds, calls) in totals.items():
            name, mode = split_phase_key(key)
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + seconds
            )
            self.phase_calls[name] = self.phase_calls.get(name, 0) + calls
            bucket = mode if mode is not None else SHARED_MODE
            seconds_by_mode = self.mode_phase_seconds.setdefault(name, {})
            seconds_by_mode[bucket] = (
                seconds_by_mode.get(bucket, 0.0) + seconds
            )
            calls_by_mode = self.mode_phase_calls.setdefault(name, {})
            calls_by_mode[bucket] = calls_by_mode.get(bucket, 0) + calls
