"""Closed-loop tests for the adaptation controller.

The scenario: a two-mode system synthesised for its design-time Ψ
(O2-heavy) experiences a usage shift towards O1.  The library also
holds an ``alt`` design synthesised for the O1-heavy regime, so the
controller should detect the drift and swap — and the closed loop
must spend less energy than leaving the design-time design in place.
"""

import random

import pytest

from repro.adaptive.controller import (
    AdaptationConfig,
    AdaptationController,
    trace_energy,
    warm_population,
    warm_state,
)
from repro.adaptive.drift import DriftConfig
from repro.adaptive.library import DesignLibrary, DesignRecord
from repro.errors import SpecificationError
from repro.obs.metrics import REGISTRY
from repro.runtime.events import EventLog, iter_events
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer

from tests.conftest import make_two_mode_problem

#: Usage after the shift: mostly O1 instead of mostly O2.
SHIFTED_PSI = {"O1": 0.9, "O2": 0.1}

#: Mostly-O2 phase (matches the design Ψ), then a hard shift to O1.
TRACE = [("O2", 0.9), ("O1", 0.1)] * 10 + [("O1", 2.0), ("O2", 0.2)] * 20


def make_config(**overrides):
    base = dict(
        half_life=5.0,
        prior_weight=1.0,
        drift=DriftConfig(
            regret_threshold=0.02,
            distance_threshold=0.4,
            min_confidence=0.3,
            cooldown=3.0,
        ),
        synthesis=SynthesisConfig(
            population_size=8, max_generations=6, seed=7
        ),
        max_resyntheses=1,
        seed=11,
    )
    base.update(overrides)
    return AdaptationConfig(**base)


@pytest.fixture(scope="module")
def problem():
    return make_two_mode_problem()


@pytest.fixture(scope="module")
def library(problem):
    """Design-time design plus an alternative tuned for O1-heavy use."""
    design_time = MultiModeSynthesizer(
        problem,
        SynthesisConfig(population_size=8, max_generations=10, seed=3),
    ).run()
    alt = MultiModeSynthesizer(
        problem.with_probabilities(SHIFTED_PSI),
        SynthesisConfig(population_size=8, max_generations=10, seed=5),
    ).run()
    return DesignLibrary(
        [
            DesignRecord.from_result("design-time", design_time),
            DesignRecord.from_result("alt", alt),
        ]
    )


def fresh_library(library):
    """A per-test copy so admitted designs never leak between tests."""
    return DesignLibrary(list(library.records))


class TestConfigValidation:
    def test_rejects_bad_half_life(self):
        with pytest.raises(SpecificationError, match="half_life"):
            AdaptationConfig(half_life=0.0)

    def test_rejects_bad_seed_designs(self):
        with pytest.raises(SpecificationError, match="seed_designs"):
            AdaptationConfig(seed_designs=0)

    def test_rejects_negative_max_resyntheses(self):
        with pytest.raises(SpecificationError, match="max_resyntheses"):
            AdaptationConfig(max_resyntheses=-1)


class TestSwitchTime:
    def test_defaults_to_largest_finite_transition_time(
        self, problem, library
    ):
        controller = AdaptationController(
            problem, fresh_library(library), make_config()
        )
        expected = max(
            t.max_time
            for t in problem.omsm.transitions
            if t.max_time != float("inf")
        )
        assert controller.switch_time() == expected

    def test_config_override_wins(self, problem, library):
        controller = AdaptationController(
            problem,
            fresh_library(library),
            make_config(switch_time=1.25),
        )
        assert controller.switch_time() == 1.25


class TestWarmStart:
    def test_population_keeps_seeds_verbatim(self, problem, library):
        seeds = [record.genes for record in library.records]
        config = SynthesisConfig(population_size=8)
        population = warm_population(
            problem, config, seeds, random.Random(0)
        )
        assert len(population) == config.population_size
        assert population[: len(seeds)] == seeds

    def test_population_is_deterministic(self, problem, library):
        seeds = [library.get("design-time").genes]
        config = SynthesisConfig(population_size=10)
        first = warm_population(problem, config, seeds, random.Random(4))
        second = warm_population(
            problem, config, seeds, random.Random(4)
        )
        assert first == second

    def test_requires_seeds(self, problem):
        with pytest.raises(SpecificationError, match="seed"):
            warm_population(
                problem, SynthesisConfig(), [], random.Random(0)
            )

    def test_state_is_a_generation_zero_snapshot(self, problem, library):
        seeds = [library.get("design-time").genes]
        config = SynthesisConfig(population_size=8)
        state = warm_state(problem, config, seeds, random.Random(1))
        assert state.generation == 0
        assert len(state.population) == config.population_size
        assert state.best_genes is None
        assert state.evaluations == 0

    def test_resume_accepts_warm_state(self, problem, library):
        # The warm state must ride the existing checkpoint hooks.
        config = SynthesisConfig(
            population_size=8, max_generations=3, seed=9
        )
        seeds = [library.get("design-time").genes]
        state = warm_state(problem, config, seeds, random.Random(2))
        result = MultiModeSynthesizer(problem, config).run(resume=state)
        assert result.generations >= 1


class TestClosedLoop:
    def run_loop(self, problem, library, **overrides):
        controller = AdaptationController(
            problem, library, make_config(**overrides)
        )
        return controller.run(TRACE)

    def test_swaps_to_the_alternative_design(self, problem, library):
        report = self.run_loop(problem, fresh_library(library))
        assert report.swaps >= 1
        swap = next(d for d in report.decisions if d.kind == "swap")
        assert swap.design != "design-time"
        assert report.deployed != "design-time"

    def test_beats_the_static_deployment(self, problem, library):
        lib = fresh_library(library)
        report = self.run_loop(problem, lib)
        static = trace_energy(library.get("design-time"), TRACE)
        assert report.energy < static
        assert report.simulated_time == pytest.approx(
            sum(dwell for _, dwell in TRACE)
        )
        assert report.average_power == pytest.approx(
            report.energy / report.simulated_time
        )

    def test_is_bit_reproducible(self, problem, library):
        first = self.run_loop(problem, fresh_library(library))
        second = self.run_loop(problem, fresh_library(library))
        assert first.energy == second.energy
        assert first.deployed == second.deployed
        assert first.psi_estimate == second.psi_estimate
        assert [
            (d.time, d.kind, d.design, d.reason)
            for d in first.decisions
        ] == [
            (d.time, d.kind, d.design, d.reason)
            for d in second.decisions
        ]

    def test_switching_cost_is_charged(self, problem, library):
        cheap = self.run_loop(
            problem, fresh_library(library), switch_time=0.0
        )
        costly = self.run_loop(
            problem, fresh_library(library), switch_time=5.0
        )
        assert cheap.swaps >= 1 and costly.swaps >= 1
        assert costly.energy > cheap.energy

    def test_max_resyntheses_caps_ga_launches(self, problem, library):
        report = self.run_loop(
            problem, fresh_library(library), max_resyntheses=0
        )
        assert report.resyntheses == 0

    @pytest.mark.parametrize(
        "mode,dwell",
        [("O1", -1.0), ("O1", float("nan")), ("O1", float("inf")), ("X", 1.0)],
        ids=["negative", "nan", "inf", "unknown-mode"],
    )
    def test_rejected_visit_changes_nothing(
        self, problem, library, mode, dwell
    ):
        controller = AdaptationController(
            problem, fresh_library(library), make_config()
        )
        for visit in TRACE[:4]:
            controller.step(*visit)
        energy, now = controller.energy, controller.now
        estimate = controller.estimator.estimate()
        with pytest.raises(SpecificationError):
            controller.step(mode, dwell)
        assert controller.energy == energy
        assert controller.now == now
        assert controller.estimator.estimate() == estimate

    def test_initial_design_is_honoured(self, problem, library):
        controller = AdaptationController(
            problem,
            fresh_library(library),
            make_config(),
            initial_design="alt",
        )
        assert controller.deployed.name == "alt"

    def test_metrics_registry_sees_the_loop(self, problem, library):
        before = REGISTRY.snapshot()
        report = self.run_loop(problem, fresh_library(library))
        delta = REGISTRY.delta_since(before)
        counters = {
            name: value
            for (name, _), value in delta["counters"].items()
        }
        assert counters["adapt_drift_checks"] == len(TRACE)
        assert counters["adapt_drift_detected"] == report.drift_events
        assert counters.get("adapt_swaps", 0) == report.swaps
        assert (
            counters.get("adapt_resyntheses", 0) == report.resyntheses
        )
        regret = REGISTRY.histogram_data("adapt_regret")
        assert regret.count >= len(TRACE)
        assert REGISTRY.gauge_value("adapt_energy_joules") > 0

    def test_events_land_on_the_jsonl_stream(
        self, problem, library, tmp_path
    ):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            controller = AdaptationController(
                problem,
                fresh_library(library),
                make_config(),
                event_log=log,
            )
            report = controller.run(TRACE)
        events = list(iter_events(path))
        kinds = [event["event"] for event in events]
        assert kinds.count("adapt_drift") == report.drift_events
        assert kinds.count("adapt_swap") == report.swaps
        swap = next(e for e in events if e["event"] == "adapt_swap")
        assert swap["previous"] == "design-time"
        assert "switch_time" in swap

    def test_adapt_events_render_human_readably(
        self, problem, library, tmp_path
    ):
        from repro.obs.status import format_event

        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            AdaptationController(
                problem,
                fresh_library(library),
                make_config(),
                event_log=log,
            ).run(TRACE)
        lines = [format_event(e) for e in iter_events(path)]
        assert any("drift" in line for line in lines)
        assert any("->" in line for line in lines)
        assert all(isinstance(line, str) and line for line in lines)
