"""The bounded per-mode result cache of the incremental pipeline.

Equation (1) is a probability-weighted *sum over modes*, and almost
everything the evaluator computes for one mode — communication mapping,
mobilities, core demand, the list schedule, DVS voltage selection and
the per-mode power figures — depends only on that mode's slice of the
mapping string (plus, for scheduling, the hardware core counts the mode
actually reads).  A :class:`ModeResultCache` memoises those per-mode
stage results across candidates, so a genome that perturbs one mode
pays for one mode's pipeline instead of all of them.

Two segments, two keys:

``prep``
    keyed by ``(mode, mode-gene slice, config fingerprint)`` — the
    ALAP starts, mobilities and per-PE core demand.  Pure function of
    the mode's genes.
``sched``
    keyed by ``(mode, mode-gene slice, core-set signature, config
    fingerprint)`` — the post-DVS schedule, timing violations and
    per-mode dynamic/static power.  The core-set signature captures the
    *only* cross-mode coupling: the allocated core counts of exactly
    the (PE, task type) pairs this mode's scheduler reads (the prep's
    ``read_set``), so ASIC union changes caused by *other* modes only
    miss when they actually change a count this mode observes.

Both segments are bounded LRUs (:data:`MODE_CACHE_SIZE` entries each
for the per-problem cache); hits, misses and evictions are metered per
mode on the process-global :data:`~repro.obs.metrics.REGISTRY` together
with a hit-rate gauge and an (approximate) bytes-resident gauge.

Cached values are Ψ-independent — probabilities only enter the final
weighted sum — so one cache instance remains valid across
``Problem.with_probabilities`` re-targets (the adaptive subsystem's
warm-started re-synthesis inherits it; see :func:`mode_cache_for`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.mapping.cores import ModeDemand
from repro.obs.metrics import REGISTRY, MetricKey, metric_key
from repro.scheduling.schedule import ModeSchedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.problem import Problem
    from repro.synthesis.config import SynthesisConfig

#: Entry capacity of each segment of the per-problem cache built by
#: :func:`mode_cache_for`.
MODE_CACHE_SIZE = 4096

#: The gauge series, resolved once: hit rate (set on every lookup),
#: resident bytes and entries (on every insertion).
_HIT_RATE: MetricKey = metric_key("eval_mode_cache_hit_rate", {})
_BYTES: MetricKey = metric_key("eval_mode_cache_bytes_resident", {})
_ENTRIES: MetricKey = metric_key("eval_mode_cache_entries", {})

#: The configuration facets that change per-mode stage results.  Two
#: configs with equal fingerprints produce bit-identical mode results,
#: so entries are shared; anything else (fitness weights, probability
#: policy, GA sizing) only affects the uncached combine stages.
ConfigFingerprint = Tuple[str, bool]

#: ``(mode, mode-gene slice, fingerprint)``.
PrepKey = Tuple[str, Tuple[str, ...], ConfigFingerprint]

#: ``((pe, ((type, cores), ...)), ...)`` — the core counts this mode reads.
CoreSignature = Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], ...]

#: ``(mode, mode-gene slice, core signature, fingerprint)``.
SchedKey = Tuple[str, Tuple[str, ...], CoreSignature, ConfigFingerprint]


def config_fingerprint(config: "SynthesisConfig") -> ConfigFingerprint:
    """The facets of a configuration that per-mode results depend on."""
    return (config.dvs.value, config.dvs_shared_rail)


class ModePrep:
    """Gene-slice-derived per-mode data (prep segment value).

    ``genes`` is the mode's gene slice, which is its mapping; ``alap``
    and ``mobility`` are indexed by gene position; ``demand`` is the
    per-PE core demand.  ``read_set`` lists, per hardware PE with a
    task of the mode, its sorted task types: the core counts the
    mode's scheduler reads, which key the sched segment.
    """

    __slots__ = ("genes", "alap", "mobility", "demand", "read_set", "approx_bytes")

    def __init__(
        self,
        genes: Tuple[str, ...],
        alap: Tuple[float, ...],
        mobility: Tuple[float, ...],
        demand: ModeDemand,
    ) -> None:
        self.genes = genes
        self.alap = alap
        self.mobility = mobility
        self.demand = demand
        self.read_set = tuple(
            (pe_name, tuple(sorted(base)))
            for pe_name, (base, _) in demand.items()
            if base
        )
        # Rough per-entry footprint: the three per-task tuples and the
        # demand dicts.  Good enough for a resident-bytes gauge; no
        # claim of allocator-level accuracy.
        demand_entries = sum(
            len(base) + len(desired)
            for base, desired in demand.values()
        )
        self.approx_bytes = 64 * len(genes) + 96 * demand_entries + 256


class ModeOutcome:
    """Schedule-stage result of one mode (sched segment value).

    ``schedule is None`` marks a *scheduling-infeasible* mode slice
    (the list scheduler raised): the pipeline returns ``None`` for the
    whole candidate — and the infeasibility itself is cacheable.
    """

    __slots__ = ("schedule", "timing", "dynamic", "static", "approx_bytes")

    def __init__(
        self,
        schedule: Optional[ModeSchedule],
        timing: Dict[str, float],
        dynamic: float,
        static: float,
    ) -> None:
        self.schedule = schedule
        self.timing = timing
        self.dynamic = dynamic
        self.static = static
        if schedule is None:
            footprint = 128
        else:
            footprint = 512 + 320 * (
                len(schedule.task_names) + len(schedule.comm_srcs)
            )
        self.approx_bytes = footprint + 64 * len(timing)

    @property
    def feasible(self) -> bool:
        return self.schedule is not None


class ModeResultCache:
    """Two bounded LRU segments of per-mode stage results.

    One instance serves one :class:`Problem` (and its
    ``with_probabilities`` descendants) within one process; pool
    workers each hold their own (fork workers inherit the parent's
    warm entries copy-on-write).  All bookkeeping is metered on the
    process-global metrics registry, so worker-side hits travel back to
    the parent through the existing snapshot/delta/merge plumbing.
    """

    __slots__ = (
        "capacity",
        "_prep",
        "_sched",
        "hits",
        "misses",
        "evictions",
        "bytes_resident",
        "_series",
    )

    def __init__(self, capacity: int = MODE_CACHE_SIZE) -> None:
        if capacity < 1:
            raise ValueError("mode cache capacity must be at least 1")
        self.capacity = capacity
        self._prep: "OrderedDict[PrepKey, ModePrep]" = OrderedDict()
        self._sched: "OrderedDict[SchedKey, ModeOutcome]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes_resident = 0
        # (hit, mode, stage) -> its hits/misses counter series, resolved
        # once per series instead of once per lookup.
        self._series: Dict[Tuple[bool, str, str], MetricKey] = {}

    # ------------------------------------------------------------------
    # Prep segment
    # ------------------------------------------------------------------

    def get_prep(self, key: PrepKey) -> Optional[ModePrep]:
        entry = self._prep.get(key)
        self._count(entry is not None, key[0], "prep")
        if entry is not None:
            self._prep.move_to_end(key)
        return entry

    def put_prep(self, key: PrepKey, value: ModePrep) -> None:
        if key in self._prep:  # pragma: no cover - defensive (get-first)
            self.bytes_resident -= self._prep[key].approx_bytes
        self._prep[key] = value
        self.bytes_resident += value.approx_bytes
        if len(self._prep) > self.capacity:
            evicted_key, evicted = self._prep.popitem(last=False)
            self.bytes_resident -= evicted.approx_bytes
            self.evictions += 1
            REGISTRY.inc(
                "eval_mode_cache_evictions_total",
                mode=evicted_key[0],
                stage="prep",
            )
        self._publish_gauges()

    # ------------------------------------------------------------------
    # Sched segment
    # ------------------------------------------------------------------

    def get_sched(self, key: SchedKey) -> Optional[ModeOutcome]:
        entry = self._sched.get(key)
        self._count(entry is not None, key[0], "sched")
        if entry is not None:
            self._sched.move_to_end(key)
        return entry

    def put_sched(self, key: SchedKey, value: ModeOutcome) -> None:
        if key in self._sched:  # pragma: no cover - defensive (get-first)
            self.bytes_resident -= self._sched[key].approx_bytes
        self._sched[key] = value
        self.bytes_resident += value.approx_bytes
        if len(self._sched) > self.capacity:
            evicted_key, evicted = self._sched.popitem(last=False)
            self.bytes_resident -= evicted.approx_bytes
            self.evictions += 1
            REGISTRY.inc(
                "eval_mode_cache_evictions_total",
                mode=evicted_key[0],
                stage="sched",
            )
        self._publish_gauges()

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _count(self, hit: bool, mode: str, stage: str) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        series = self._series.get((hit, mode, stage))
        if series is None:
            series = self._series[(hit, mode, stage)] = metric_key(
                "eval_mode_cache_hits_total"
                if hit
                else "eval_mode_cache_misses_total",
                {"mode": mode, "stage": stage},
            )
        REGISTRY.add(series)
        REGISTRY.set_gauge_key(_HIT_RATE, self.hit_rate)

    def _publish_gauges(self) -> None:
        REGISTRY.set_gauge_key(_BYTES, self.bytes_resident)
        REGISTRY.set_gauge_key(_ENTRIES, len(self))

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (both segments)."""
        looked_up = self.hits + self.misses
        if looked_up == 0:
            return 0.0
        return self.hits / looked_up

    def __len__(self) -> int:
        return len(self._prep) + len(self._sched)

    def clear(self) -> None:
        """Drop all entries and reset every meter and gauge.

        The hit/miss/eviction meters restart from zero and the
        hit-rate, bytes-resident and entries gauges are re-published
        immediately — ``--status`` must not report the pre-clear
        figures until the next lookup happens to refresh them.
        """
        self._prep.clear()
        self._sched.clear()
        self.bytes_resident = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        REGISTRY.set_gauge_key(_HIT_RATE, 0.0)
        self._publish_gauges()

    def stats(self) -> Dict[str, float]:
        """A plain-dict summary (tests, debugging, CLI display)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "entries": len(self),
            "bytes_resident": self.bytes_resident,
            "capacity": self.capacity,
        }


def mode_cache_for(
    problem: "Problem", config: "SynthesisConfig"
) -> ModeResultCache:
    """The problem's mode-result cache, built on first use and memoised.

    Follows the ``context_for`` pattern: the cache rides on the
    :class:`Problem` object, so the GA loop, the serial fallback and
    the local-search polish all share one instance — and
    ``Problem.with_probabilities`` descendants inherit it (cached
    values are Ψ-independent; configuration differences are isolated
    by the fingerprint inside every key, so ``config`` does not select
    the instance).
    """
    cached = getattr(problem, "_mode_result_cache", None)
    if cached is None:
        cached = ModeResultCache(MODE_CACHE_SIZE)
        problem._mode_result_cache = cached  # type: ignore[attr-defined]
    return cached
