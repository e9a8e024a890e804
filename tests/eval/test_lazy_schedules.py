"""Schedules built on first read, and the scores the mode cache keeps.

The evaluator keeps only each mode's scores (feasibility, timing
violations, dynamic and static power) and hands out an
:class:`~repro.mapping.implementation.Implementation` whose
``schedules`` mapping rebuilds a mode's schedule, with the kernels that
scored it, when it is first read.  These tests pin that the rebuilt
schedule reproduces the cached scores bit for bit, that a GA run
schedules exactly once per sched-segment miss, and that a schedule is
built at most once per implementation.  A GA run scores every mode
from arrays: it emits no voltage-scaled schedule until one is read.
"""

import random
from collections.abc import Mapping, MutableMapping

import pytest

import repro.dvs.pv_dvs as pv_dvs
import repro.eval.stages as stages
from repro.benchgen import registry
from repro.eval.cache import ModeResultCache
from repro.mapping.encoding import MappingString
from repro.obs.metrics import REGISTRY
from repro.power.energy_model import mode_dynamic_power
from repro.power.shutdown import mode_static_power
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer
from repro.synthesis.evaluator import evaluate_mapping
from repro.validation import validate_implementation

INSTANCES = ("mul1", "mul3", "mul8", "smartphone")
METHODS = (DvsMethod.NONE, DvsMethod.GRADIENT, DvsMethod.UNIFORM)


@pytest.fixture
def schedule_calls(monkeypatch):
    """Count the pipeline's list-scheduler calls."""
    calls = []
    original = stages.schedule_mode

    def counting(*args, **kwargs):
        calls.append(args[1].name)
        return original(*args, **kwargs)

    monkeypatch.setattr(stages, "schedule_mode", counting)
    return calls


def _sched_misses(counters):
    return sum(
        value
        for (metric, labels), value in counters.items()
        if metric == "eval_mode_cache_misses_total" and ("stage", "sched") in labels
    )


def _implementations(problem, config, cache, count, seed):
    """``count`` decodable candidates, software-biased and uniform."""
    rng = random.Random(seed)
    found = []
    for attempt in range(200):
        if attempt % 2:
            genome = MappingString.random(problem, rng)
        else:
            genome = MappingString.random_software_biased(problem, rng)
        implementation = evaluate_mapping(problem, genome, config, cache=cache)
        if implementation is not None:
            found.append(implementation)
            if len(found) == count:
                return found
    raise AssertionError(f"{problem.name}: too few decodable candidates")


def _assert_scores_match(implementation):
    problem = implementation.problem
    metrics = implementation.metrics
    for mode in problem.omsm.modes:
        schedule = implementation.schedules[mode.name]
        assert (
            mode_dynamic_power(problem, mode.name, schedule)
            == metrics.dynamic_power[mode.name]
        )
        assert mode_static_power(problem, schedule) == metrics.static_power[
            mode.name
        ]
        assert schedule.timing_violations(mode) == metrics.timing_violation.get(
            mode.name, {}
        )


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
@pytest.mark.parametrize("name", INSTANCES)
class TestLazyScheduleScores:
    def test_rebuilt_schedule_reproduces_cached_scores(self, name, method):
        problem = registry.get(name)
        config = SynthesisConfig(dvs=method)
        cache = ModeResultCache(256)
        for implementation in _implementations(problem, config, cache, 3, 7):
            _assert_scores_match(implementation)

    def test_sched_miss_after_prep_hit_scores_identically(self, name, method):
        # With only the sched segment cleared, every mode's prep hits
        # and its schedule stage recomputes the ALAP row itself.
        problem = registry.get(name)
        config = SynthesisConfig(dvs=method)
        cache = ModeResultCache(256)
        for first in _implementations(problem, config, cache, 2, 13):
            cache._sched.clear()
            hits = cache.hits
            again = evaluate_mapping(problem, first.mapping, config, cache=cache)
            assert cache.hits - hits == len(problem.omsm)
            assert again.metrics == first.metrics
            _assert_scores_match(again)


class TestScheduleReads:
    def test_run_schedules_once_per_sched_miss(self, schedule_calls):
        problem = registry.get("mul3")
        config = SynthesisConfig(
            dvs=DvsMethod.GRADIENT,
            population_size=10,
            max_generations=5,
            seed=3,
        )
        base = REGISTRY.snapshot()
        result = MultiModeSynthesizer(problem, config).run()
        sched_misses = _sched_misses(REGISTRY.delta_since(base)["counters"])
        assert sched_misses > 0
        assert len(schedule_calls) == sched_misses

        # The best design's schedules are built when validation reads
        # them, one per mode, and never again.
        del schedule_calls[:]
        validate_implementation(result.best)
        assert sorted(schedule_calls) == sorted(problem.omsm.mode_names)
        validate_implementation(result.best)
        assert len(schedule_calls) == len(problem.omsm)

    def test_second_read_returns_the_same_schedule(self, schedule_calls):
        problem = registry.get("mul1")
        config = SynthesisConfig(
            dvs=DvsMethod.GRADIENT, population_size=8, max_generations=3, seed=2
        )
        best = MultiModeSynthesizer(problem, config).run().best
        del schedule_calls[:]
        for mode_name in problem.omsm.mode_names:
            first = best.schedules[mode_name]
            assert best.schedules[mode_name] is first
            assert best.schedule(mode_name) is first
        assert len(schedule_calls) == len(problem.omsm)

    def test_schedules_are_a_read_only_mapping(self, schedule_calls):
        problem = registry.get("mul1")
        implementation = _implementations(
            problem, SynthesisConfig(), ModeResultCache(64), 1, 5
        )[0]
        schedules = implementation.schedules
        assert isinstance(schedules, Mapping)
        assert not isinstance(schedules, MutableMapping)
        del schedule_calls[:]
        # Listing and membership build nothing; an unknown mode is a
        # KeyError, not a build.
        assert list(schedules) == list(problem.omsm.mode_names)
        assert len(schedules) == len(problem.omsm)
        assert problem.omsm.mode_names[0] in schedules
        assert "ghost" not in schedules
        assert schedules.get("ghost") is None
        assert schedule_calls == []


class TestScoringPath:
    @pytest.mark.parametrize(
        "method", [DvsMethod.GRADIENT, DvsMethod.UNIFORM], ids=lambda m: m.value
    )
    @pytest.mark.parametrize("name", ["mul7", "smartphone"])
    def test_run_emits_no_scaled_schedule(
        self, name, method, schedule_calls, monkeypatch
    ):
        # mul7 scores through Fig. 5 segment chains (DVS ASICs on shared
        # rails), the smartphone straight from the DVS graph.
        emitted = []
        original = pv_dvs._emit

        def counting(schedule, *args, **kwargs):
            emitted.append(schedule.mode_name)
            return original(schedule, *args, **kwargs)

        monkeypatch.setattr(pv_dvs, "_emit", counting)
        problem = registry.get(name)
        config = SynthesisConfig(
            dvs=method, population_size=10, max_generations=4, seed=5
        )
        base = REGISTRY.snapshot()
        result = MultiModeSynthesizer(problem, config).run()
        sched_misses = _sched_misses(REGISTRY.delta_since(base)["counters"])
        assert sched_misses > 0
        assert len(schedule_calls) == sched_misses
        assert emitted == []

        # A read builds the schedule: one list schedule, one emission.
        del schedule_calls[:]
        mode_name = problem.omsm.mode_names[-1]
        result.best.schedules[mode_name]
        assert schedule_calls == [mode_name]
        assert emitted == [mode_name]
