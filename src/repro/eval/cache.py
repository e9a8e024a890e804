"""The bounded per-mode result cache of the incremental pipeline.

Equation (1) is a probability-weighted *sum over modes*, and almost
everything the evaluator computes for one mode — communication mapping,
mobilities, core demand, the list schedule, DVS voltage selection and
the per-mode power figures — depends only on that mode's slice of the
mapping string (plus, for scheduling, the hardware core counts the mode
actually reads).  A :class:`ModeResultCache` memoises those per-mode
stage results across candidates, so a genome that perturbs one mode
pays for one mode's pipeline instead of all of them.

An entry holds only what a later lookup reads.  Two segments, two keys:

``prep``
    keyed by ``(mode, mode-gene slice, config fingerprint)`` — the gene
    slice, the per-PE core demand and its read set.  Pure function of
    the mode's genes.  The mobilities only feed the demand and the ALAP
    starts only feed a schedule built in the same evaluation, so
    neither is kept.
``sched``
    keyed by ``(mode, mode-gene slice, core-set signature, config
    fingerprint)`` — feasibility, timing violations and per-mode
    dynamic/static power: the three things fitness reads.  The post-DVS
    schedule is not kept; an
    :class:`~repro.mapping.implementation.Implementation` rebuilds a
    mode's schedule when someone reads it.  The core-set signature
    captures the *only* cross-mode coupling: the allocated core counts
    of exactly the (PE, task type) pairs this mode's scheduler reads
    (the prep's ``read_set``), so ASIC union changes caused by *other*
    modes only miss when they actually change a count this mode
    observes.

Both segments are bounded LRUs (:data:`MODE_CACHE_SIZE` entries each
for the per-problem cache); hits, misses and evictions are counted per
mode on the process-global :data:`~repro.obs.metrics.REGISTRY`, one add
to a pre-resolved counter per lookup.  The hit rate, entries and
(approximate) resident bytes of one cache are read off
:meth:`ModeResultCache.stats`.

Cached values are Ψ-independent — probabilities only enter the final
weighted sum — so one cache instance serves both probability policies
of an instance: a campaign's uniform and Ψ-aware jobs on the same
:class:`Problem` share its entries (see :func:`mode_cache_for`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.mapping.cores import ModeDemand
from repro.obs.metrics import REGISTRY, MetricKey, metric_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.problem import Problem
    from repro.synthesis.config import SynthesisConfig

#: Entry capacity of each segment of the per-problem cache built by
#: :func:`mode_cache_for`.
MODE_CACHE_SIZE = 4096

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

    ``genes`` is the mode's gene slice, which is its mapping;
    ``demand`` is the per-PE core demand.  ``read_set`` lists, per
    hardware PE with a task of the mode, its sorted task types: the
    core counts the mode's scheduler reads, which key the sched
    segment.
    """

    __slots__ = ("genes", "demand", "read_set", "approx_bytes")

    def __init__(self, genes: Tuple[str, ...], demand: ModeDemand) -> None:
        self.genes = genes
        self.demand = demand
        self.read_set = tuple(
            (pe_name, tuple(sorted(base)))
            for pe_name, (base, _) in demand.items()
            if base
        )
        # Rough per-entry footprint (key and LRU slot included),
        # fitted to tracemalloc on full smartphone and mul8 caches.
        # Good enough for a resident-bytes figure; no claim of
        # allocator-level accuracy.
        demand_entries = sum(
            len(base) + len(desired)
            for base, desired in demand.values()
        )
        self.approx_bytes = (
            440 + 8 * len(genes) + 500 * len(demand) + 20 * demand_entries
        )


class ModeOutcome:
    """Schedule-stage result of one mode (sched segment value).

    Holds what fitness reads: feasibility, the timing violations and
    the mode's dynamic and static power.  ``feasible`` is false for a
    *scheduling-infeasible* mode slice (the list scheduler raised): the
    pipeline returns ``None`` for the whole candidate — and the
    infeasibility itself is cacheable.
    """

    __slots__ = ("feasible", "timing", "dynamic", "static", "approx_bytes")

    def __init__(
        self,
        feasible: bool,
        timing: Dict[str, float],
        dynamic: float,
        static: float,
    ) -> None:
        self.feasible = feasible
        self.timing = timing
        self.dynamic = dynamic
        self.static = static
        # Rough footprint of the value, its key and LRU slot, fitted
        # like the prep's; the key's core signature comes on top (see
        # :func:`_footprint`).
        self.approx_bytes = 440 + 96 * len(timing)


def _footprint(key: Tuple[Any, ...], value: Any) -> int:
    """Approximate bytes of one cache entry.

    The value's own estimate, plus a sched key's core signature: about
    120 bytes per PE and 64 per core count (the key's gene tuple is the
    prep's).
    """
    if type(value) is ModeOutcome:
        return value.approx_bytes + sum(
            120 + 64 * len(counts) for _, counts in key[2]
        )
    return value.approx_bytes


#: The ``(hits, misses, evictions)`` counter series of one mode and stage.
_Series = Tuple[MetricKey, MetricKey, MetricKey]


def _resolve(series_of: Dict[str, _Series], mode: str, stage: str) -> _Series:
    """Resolve and remember one mode's counter series in one segment."""
    labels = {"mode": mode, "stage": stage}
    series = series_of[mode] = (
        metric_key("eval_mode_cache_hits_total", labels),
        metric_key("eval_mode_cache_misses_total", labels),
        metric_key("eval_mode_cache_evictions_total", labels),
    )
    return series


class ModeResultCache:
    """Two bounded LRU segments of per-mode stage results.

    One instance serves one :class:`Problem`, under either probability
    policy, within one process; pool workers each hold their own (fork
    workers inherit the parent's warm entries copy-on-write).  Lookups
    and evictions are counted on the process-global metrics registry, so
    worker-side hits travel back to the parent through the existing
    snapshot/delta/merge plumbing.
    """

    __slots__ = (
        "capacity",
        "_prep",
        "_sched",
        "hits",
        "misses",
        "evictions",
        "bytes_resident",
        "_prep_series",
        "_sched_series",
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
        # Per segment, mode -> its hits/misses/evictions series,
        # resolved once per mode instead of once per call.
        self._prep_series: Dict[str, _Series] = {}
        self._sched_series: Dict[str, _Series] = {}

    def get_prep(self, key: PrepKey) -> Optional[ModePrep]:
        return self._get(self._prep, key, self._prep_series, "prep")

    def put_prep(self, key: PrepKey, value: ModePrep) -> None:
        self._put(self._prep, key, value, self._prep_series, "prep")

    def get_sched(self, key: SchedKey) -> Optional[ModeOutcome]:
        return self._get(self._sched, key, self._sched_series, "sched")

    def put_sched(self, key: SchedKey, value: ModeOutcome) -> None:
        self._put(self._sched, key, value, self._sched_series, "sched")

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _get(
        self,
        segment: "OrderedDict[Any, Any]",
        key: Tuple[Any, ...],
        series_of: Dict[str, _Series],
        stage: str,
    ) -> Any:
        series = series_of.get(key[0])
        if series is None:
            series = _resolve(series_of, key[0], stage)
        entry = segment.get(key)
        if entry is not None:
            segment.move_to_end(key)
            self.hits += 1
            REGISTRY.add(series[0])
        else:
            self.misses += 1
            REGISTRY.add(series[1])
        return entry

    def _put(
        self,
        segment: "OrderedDict[Any, Any]",
        key: Tuple[Any, ...],
        value: Any,
        series_of: Dict[str, _Series],
        stage: str,
    ) -> None:
        if key in segment:  # pragma: no cover - defensive (get-first)
            self.bytes_resident -= _footprint(key, segment[key])
        segment[key] = value
        self.bytes_resident += _footprint(key, value)
        if len(segment) > self.capacity:
            evicted_key, evicted = segment.popitem(last=False)
            self.bytes_resident -= _footprint(evicted_key, evicted)
            self.evictions += 1
            series = series_of.get(evicted_key[0])
            if series is None:
                series = _resolve(series_of, evicted_key[0], stage)
            REGISTRY.add(series[2])

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
        """Drop all entries and restart :meth:`stats` from zero."""
        self._prep.clear()
        self._sched.clear()
        self.bytes_resident = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

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
    the local-search polish all share one instance, and so do runs
    under either probability policy (cached values are Ψ-independent;
    configuration differences are isolated by the fingerprint inside
    every key, so ``config`` does not select the instance).
    """
    cached = getattr(problem, "_mode_result_cache", None)
    if cached is None:
        cached = ModeResultCache(MODE_CACHE_SIZE)
        problem._mode_result_cache = cached  # type: ignore[attr-defined]
    return cached
