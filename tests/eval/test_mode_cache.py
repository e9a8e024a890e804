"""Unit tests of the per-mode result cache and its observability.

Covers the bounded-LRU mechanics (hits refresh recency, capacity
evicts oldest, byte accounting follows), the metrics emitted on the
process-global registry, per-problem memoisation incl. sharing across
both probability policies, the config fingerprint, and the
dirty-mode contract: after a single-mode edit, the clean modes' prep
lookups are cache hits, and the collector footprint of cached results.
"""

import gc
import random

import pytest

from repro.benchgen.smartphone import smartphone_problem
from repro.benchgen.suite import suite_problem
from repro.eval.cache import (
    MODE_CACHE_SIZE,
    ModeOutcome,
    ModePrep,
    ModeResultCache,
    config_fingerprint,
    mode_cache_for,
)
from repro.mapping.encoding import MappingString, mode_bounds
from repro.obs.metrics import REGISTRY
from repro.scheduling.mobility import MobilityInfo
from repro.scheduling.schedule import ModeSchedule
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer
from repro.synthesis.evaluator import evaluate_mapping

from tests.conftest import make_two_mode_problem

FP = ("none", True, True, 0)


def _prep(n: int = 1) -> ModePrep:
    return ModePrep(genes=("PE0",) * n, demand={"HW": ({"A": n}, {"A": n})})


def _outcome() -> ModeOutcome:
    return ModeOutcome(feasible=False, timing={}, dynamic=0.0, static=0.0)


class TestLruMechanics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ModeResultCache(0)

    def test_get_miss_then_hit(self):
        cache = ModeResultCache(4)
        key = ("m0", ("PE0",), FP)
        assert cache.get_prep(key) is None
        value = _prep()
        cache.put_prep(key, value)
        assert cache.get_prep(key) is value
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_eviction_drops_least_recently_used(self):
        cache = ModeResultCache(2)
        keys = [("m0", (f"PE{i}",), FP) for i in range(3)]
        cache.put_prep(keys[0], _prep())
        cache.put_prep(keys[1], _prep())
        # Touch keys[0] so keys[1] becomes the eviction victim.
        assert cache.get_prep(keys[0]) is not None
        cache.put_prep(keys[2], _prep())
        assert cache.evictions == 1
        assert cache.get_prep(keys[0]) is not None
        assert cache.get_prep(keys[1]) is None
        assert cache.get_prep(keys[2]) is not None

    def test_segments_are_bounded_independently(self):
        cache = ModeResultCache(1)
        cache.put_prep(("m0", ("PE0",), FP), _prep())
        cache.put_sched(("m0", ("PE0",), (), FP), _outcome())
        assert len(cache) == 2
        assert cache.evictions == 0
        cache.put_prep(("m0", ("PE1",), FP), _prep())
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_byte_accounting_tracks_eviction_and_clear(self):
        cache = ModeResultCache(1)
        big, small = _prep(10), _prep(1)
        cache.put_prep(("m0", ("PE0",), FP), big)
        assert cache.bytes_resident == big.approx_bytes
        cache.put_prep(("m0", ("PE1",), FP), small)
        assert cache.bytes_resident == small.approx_bytes
        cache.clear()
        assert cache.bytes_resident == 0
        assert len(cache) == 0

    def test_stats_summary(self):
        cache = ModeResultCache(8)
        cache.get_prep(("m0", ("PE0",), FP))
        cache.put_prep(("m0", ("PE0",), FP), _prep())
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["capacity"] == 8
        assert stats["bytes_resident"] > 0


class TestMetrics:
    def test_hits_misses_and_evictions_are_metered_per_mode(self):
        base = REGISTRY.snapshot()
        cache = ModeResultCache(1)
        cache.get_prep(("modeA", ("PE0",), FP))
        cache.put_prep(("modeA", ("PE0",), FP), _prep())
        cache.get_prep(("modeA", ("PE0",), FP))
        cache.put_prep(("modeB", ("PE1",), FP), _prep())  # evicts modeA
        delta = REGISTRY.delta_since(base)["counters"]

        def count(name, **labels):
            from repro.obs.metrics import metric_key

            return delta.get(metric_key(name, labels), 0.0)

        assert count(
            "eval_mode_cache_misses_total", mode="modeA", stage="prep"
        ) == 1
        assert count(
            "eval_mode_cache_hits_total", mode="modeA", stage="prep"
        ) == 1
        assert count(
            "eval_mode_cache_evictions_total", mode="modeA", stage="prep"
        ) == 1

    def test_gauges_published(self):
        cache = ModeResultCache(4)
        cache.put_prep(("m0", ("PE0",), FP), _prep())
        cache.get_prep(("m0", ("PE0",), FP))
        assert REGISTRY.gauge_value("eval_mode_cache_bytes_resident") > 0
        assert REGISTRY.gauge_value("eval_mode_cache_entries") >= 1
        assert 0.0 < REGISTRY.gauge_value("eval_mode_cache_hit_rate") <= 1.0

    def test_clear_resets_meters_and_gauges(self):
        # Regression: clear() used to leave the hit-rate gauge (and the
        # hit/miss/eviction meters) at their pre-clear values until the
        # next lookup, so --status reported stale cache stats after a
        # clear.
        cache = ModeResultCache(4)
        key = ("m0", ("PE0",), FP)
        cache.get_prep(key)
        cache.put_prep(key, _prep())
        cache.get_prep(key)
        assert REGISTRY.gauge_value("eval_mode_cache_hit_rate") == 0.5
        cache.clear()
        assert cache.hits == 0
        assert cache.misses == 0
        assert cache.evictions == 0
        assert cache.hit_rate == 0.0
        assert REGISTRY.gauge_value("eval_mode_cache_hit_rate") == 0.0
        assert REGISTRY.gauge_value("eval_mode_cache_bytes_resident") == 0
        assert REGISTRY.gauge_value("eval_mode_cache_entries") == 0


class TestHitRateGauge:
    """The gauge reads the rate the last lookup left, whenever it is read."""

    def test_reads_the_cache_that_looked_up_last(self):
        first, second = ModeResultCache(4), ModeResultCache(4)
        key = ("m0", ("PE0",), FP)
        first.put_prep(key, _prep())
        first.get_prep(key)
        second.get_prep(key)
        assert REGISTRY.gauge_value("eval_mode_cache_hit_rate") == 0.0
        first.get_prep(key)
        assert REGISTRY.gauge_value("eval_mode_cache_hit_rate") == 1.0

    def test_lookups_while_paused_leave_it_unchanged(self):
        cache = ModeResultCache(4)
        key = ("m0", ("PE0",), FP)
        cache.get_prep(key)
        cache.put_prep(key, _prep())
        cache.get_prep(key)
        with REGISTRY.paused():
            cache.get_prep(key)
        assert cache.hit_rate == 2 / 3
        assert REGISTRY.gauge_value("eval_mode_cache_hit_rate") == 0.5


class TestConfigFingerprint:
    def test_captures_result_affecting_facets(self):
        base = SynthesisConfig()
        assert config_fingerprint(base) == config_fingerprint(
            base.with_updates(area_weight=1.0, population_size=10, seed=9)
        )
        for changed in (
            base.with_updates(dvs=DvsMethod.GRADIENT),
            base.with_updates(dvs_shared_rail=False),
        ):
            assert config_fingerprint(changed) != config_fingerprint(base)


class TestModeCacheFor:
    def test_memoised_per_problem(self):
        problem = make_two_mode_problem()
        config = SynthesisConfig()
        cache = mode_cache_for(problem, config)
        assert mode_cache_for(problem, config) is cache
        assert cache.capacity == MODE_CACHE_SIZE

    def test_shared_across_probability_policies(self):
        # Cached values are Ψ-independent, so a campaign's uniform and
        # Ψ-aware jobs on one problem share its cache.
        problem = make_two_mode_problem()
        uniform = SynthesisConfig(use_probabilities=False)
        psi_aware = SynthesisConfig(use_probabilities=True)
        assert config_fingerprint(uniform) == config_fingerprint(psi_aware)
        assert mode_cache_for(problem, uniform) is mode_cache_for(
            problem, psi_aware
        )


class TestDirtyModeConsistency:
    """After a single-mode edit, the clean modes must hit in cache."""

    def test_clean_modes_hit_after_single_mode_edit(self):
        problem = suite_problem("mul1")
        config = SynthesisConfig()
        cache = ModeResultCache(256)
        rng = random.Random(11)
        genome = MappingString.random(problem, rng)
        evaluate_mapping(problem, genome, config, cache=cache)

        bounds = mode_bounds(problem)
        dirty_name, start, _end = bounds[0]
        index = start
        candidates = genome.candidates_at(index)
        replacement = next(
            (pe for pe in candidates if pe != genome.genes[index]), None
        )
        if replacement is None:
            pytest.skip("gene 0 has a single candidate PE")
        edited = genome.with_gene(index, replacement)

        before = cache.hits
        evaluate_mapping(problem, edited, config, cache=cache)
        clean_modes = len(problem.omsm.mode_names) - 1
        # Every clean mode hits at least its prep entry; the dirty mode
        # must not (its gene slice changed).
        assert cache.hits - before >= clean_modes

    def test_identical_genome_is_all_hits(self):
        problem = make_two_mode_problem()
        config = SynthesisConfig()
        cache = ModeResultCache(64)
        rng = random.Random(3)
        genome = MappingString.random(problem, rng)
        first = evaluate_mapping(problem, genome, config, cache=cache)
        misses_after_first = cache.misses
        second = evaluate_mapping(
            problem, MappingString(problem, genome.genes), config, cache=cache
        )
        assert cache.misses == misses_after_first
        if first is not None:
            assert second is not None
            assert second.metrics.fitness == first.metrics.fitness


def _reachable(value):
    """Every object reachable from ``value``, not descending into types."""
    seen = {}
    stack = [value]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if not isinstance(obj, type):
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


class TestCollectorFootprint:
    """Cached mode results hold only what fitness reads, untracked.

    A sched entry keeps feasibility, timing violations and the two
    powers, and no schedule; a prep entry keeps the gene slice, the core
    demand and its read set, and no per-task ALAP or mobility row.  The
    gene and read-set tuples hold names, the timing dicts names and
    floats and the demand's count dicts types and ints, so the collector
    stops tracking them once it has passed over them (nested tuples
    need one pass per level).  The hot path builds no per-task
    ``MobilityInfo`` either.
    """

    def test_cached_results_are_untracked(self):
        problem = smartphone_problem()
        config = SynthesisConfig(
            dvs=DvsMethod.GRADIENT,
            population_size=8,
            max_generations=3,
            seed=5,
        )
        MultiModeSynthesizer(problem, config).run()
        cache = mode_cache_for(problem, config)
        # Each pass untracks one more level of nested tuples.
        for _ in range(3):
            gc.collect()
        preps = list(cache._prep.values())
        outcomes = [o for o in cache._sched.values() if o.feasible]
        assert preps and outcomes
        assert any(outcome.timing for outcome in outcomes)
        for value in preps + outcomes:
            assert not any(
                isinstance(obj, ModeSchedule) for obj in _reachable(value)
            )
        for prep in preps:
            # The per-task ALAP and mobility rows were the prep's floats.
            assert not any(type(obj) is float for obj in _reachable(prep))
            assert type(prep.genes) is tuple
            assert not gc.is_tracked(prep.genes)
            assert not gc.is_tracked(prep.read_set)
            for base, desired in prep.demand.values():
                assert not gc.is_tracked(base)
                assert not gc.is_tracked(desired)
        for outcome in outcomes:
            assert not gc.is_tracked(outcome.timing)
        assert not any(
            type(obj) is MobilityInfo for obj in gc.get_objects()
        )
