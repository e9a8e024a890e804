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

import copy
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union

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

#: :class:`PerfStats` properties :meth:`PerfStats.to_dict` adds to the
#: fields.
_DERIVED_RATES = (
    "cache_hit_rate",
    "evaluations_per_second",
    "pool_utilisation",
    "mode_cache_hit_rate",
    "speculation_hit_rate",
)

#: :class:`PerfStats` fields :meth:`PerfStats.merge` takes the larger of.
_MAX_FIELDS = ("jobs", "pool_workers")


def _add_table(target: Dict[str, Any], source: Mapping[str, Any]) -> None:
    """Add a (possibly nested) table of numbers into ``target``."""
    for key, value in source.items():
        if isinstance(value, dict):
            _add_table(target.setdefault(key, {}), value)
        else:
            target[key] = target.get(key, 0) + value


@dataclass
class PerfStats:
    """Per-run performance summary, exposed on ``SynthesisResult.perf``.

    The one ledger of a run's evaluation cost: each evaluation backend
    adds into its own instance (``EvaluationBackend.perf``), the driver
    merges that into the run's, and a campaign summary is the
    :meth:`merge` of its job records.

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
        Evaluations that ran inside pool workers (the parent's own
        chunk and discarded early dispatches excluded).
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
        sum of per-batch dispatch windows (submit, or an early
        dispatch's speculate, until the last result landed).  The
        preferred denominator basis of :attr:`pool_utilisation`: a pool
        idling between generations (GA bookkeeping, cache-hot batches
        that never dispatch) no longer dilutes the figure.
    pool_steals:
        Always 0: the pool dispatches static chunks.  Kept so run
        summaries recorded by the removed work-stealing pool, which
        counted tasks taken beyond an even split here, still load.
    pool_fallbacks:
        Pool failures that degraded the run to in-process evaluation.
    inprocess_evaluations / inprocess_eval_seconds:
        Evaluations (and their wall-clock) run in-process by the
        evaluation backend — every batch of a serial run; on a pool,
        tiny batches below the dispatch threshold and post-fallback
        batches; on either, the local-search polish.  Booked separately
        from :attr:`pool_busy_seconds` so cache-hot late generations
        cannot inflate :attr:`pool_utilisation`.
    mode_cache_hits / mode_cache_misses / mode_cache_evictions:
        Per-mode stage-result cache activity of the incremental
        evaluation pipeline (:mod:`repro.eval`), summed over the main
        process and all pool workers via the run's metric delta.
    speculation_issued / speculation_hits / speculation_discards:
        Early dispatch of the predicted next batch on the pool:
        genomes dispatched during breeding, genomes whose dispatch the
        next batch adopted, and genomes of dispatches no batch adopted
        (collected at run end or when a different batch arrived).  All
        zero when no pool ran.
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

        Exact-replay prediction makes every early dispatch of a
        completed run confirmed; a dispatch no batch adopts is the
        discard side of the ledger.
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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view: every field plus the derived rates."""
        payload = asdict(self)
        payload.update((name, getattr(self, name)) for name in _DERIVED_RATES)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PerfStats":
        """Load a :meth:`to_dict` payload, e.g. a job record's ``perf``.

        Unknown and derived keys are ignored, and absent fields keep
        their defaults, so records written by older versions load.
        """
        return cls(
            **{
                spec.name: copy.deepcopy(data[spec.name])
                for spec in fields(cls)
                if data.get(spec.name) is not None
            }
        )

    def merge(self, other: "PerfStats") -> None:
        """Add another ledger into this one, field by field.

        Counters, seconds and the phase tables add up; :attr:`jobs` and
        :attr:`pool_workers` describe a configuration, not work done,
        and take the larger value.
        """
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if spec.name in _MAX_FIELDS:
                setattr(self, spec.name, max(mine, theirs))
            elif isinstance(mine, dict):
                _add_table(mine, theirs)
            else:
                setattr(self, spec.name, mine + theirs)

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
