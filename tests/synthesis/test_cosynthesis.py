"""Integration tests for the complete co-synthesis loop."""

import random

import pytest

from repro.mapping.encoding import MappingString
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer, synthesize
from repro.synthesis.evaluator import evaluate_mapping


FAST = dict(
    population_size=16, max_generations=30, convergence_generations=8
)


class TestBasicRuns:
    def test_returns_feasible_solution(self, two_mode_problem):
        result = synthesize(
            two_mode_problem, SynthesisConfig(seed=1, **FAST)
        )
        assert result.is_feasible
        assert result.average_power > 0
        assert result.generations >= 1
        assert result.evaluations >= 16
        assert result.cpu_time > 0
        assert len(result.history) == result.generations

    def test_history_monotone_non_increasing(self, two_mode_problem):
        result = synthesize(
            two_mode_problem, SynthesisConfig(seed=2, **FAST)
        )
        for earlier, later in zip(result.history, result.history[1:]):
            assert later <= earlier + 1e-15

    def test_deterministic_per_seed(self, two_mode_problem):
        first = synthesize(
            two_mode_problem, SynthesisConfig(seed=7, **FAST)
        )
        second = synthesize(
            two_mode_problem, SynthesisConfig(seed=7, **FAST)
        )
        assert first.best.mapping == second.best.mapping
        assert first.average_power == pytest.approx(
            second.average_power
        )

    def test_different_seeds_may_differ(self, two_mode_problem):
        # Not guaranteed, but the histories should at least exist.
        a = synthesize(two_mode_problem, SynthesisConfig(seed=1, **FAST))
        b = synthesize(two_mode_problem, SynthesisConfig(seed=9, **FAST))
        assert a.history and b.history


class TestOptimisationQuality:
    def test_beats_average_random_mapping(self, two_mode_problem):
        result = synthesize(
            two_mode_problem, SynthesisConfig(seed=3, **FAST)
        )
        rng = random.Random(42)
        random_powers = []
        for _ in range(30):
            genome = MappingString.random(two_mode_problem, rng)
            impl = evaluate_mapping(
                two_mode_problem, genome, SynthesisConfig()
            )
            if impl is not None and impl.metrics.is_feasible:
                random_powers.append(impl.metrics.average_power)
        assert random_powers
        average_random = sum(random_powers) / len(random_powers)
        assert result.average_power <= average_random

    def test_dvs_beats_no_dvs(self, two_mode_problem):
        nominal = synthesize(
            two_mode_problem, SynthesisConfig(seed=4, **FAST)
        )
        scaled = synthesize(
            two_mode_problem,
            SynthesisConfig(seed=4, dvs=DvsMethod.GRADIENT, **FAST),
        )
        assert scaled.average_power < nominal.average_power

    def test_convergence_stops_early(self, two_mode_problem):
        result = synthesize(
            two_mode_problem,
            SynthesisConfig(
                seed=5,
                population_size=16,
                max_generations=200,
                convergence_generations=5,
            ),
        )
        assert result.generations < 200


class TestConfigurationEffects:
    def test_mutations_can_be_disabled(self, two_mode_problem):
        result = synthesize(
            two_mode_problem,
            SynthesisConfig(
                seed=6,
                enable_shutdown_improvement=False,
                enable_area_improvement=False,
                enable_timing_improvement=False,
                enable_transition_improvement=False,
                **FAST,
            ),
        )
        assert result.is_feasible

    def test_uniform_dvs_method(self, two_mode_problem):
        result = synthesize(
            two_mode_problem,
            SynthesisConfig(seed=6, dvs=DvsMethod.UNIFORM, **FAST),
        )
        assert result.is_feasible

    def test_synthesizer_reuse_keeps_cache(self, two_mode_problem):
        synthesizer = MultiModeSynthesizer(
            two_mode_problem, SynthesisConfig(seed=8, **FAST)
        )
        first = synthesizer.run()
        evaluations_after_first = first.evaluations
        second = synthesizer.run()
        # The cache persists, so the second run adds few evaluations.
        assert second.evaluations >= evaluations_after_first


class TestModePowers:
    """Equation (1) is linear in Ψ: a result's per-mode totals
    re-score its design under any probability vector."""

    def test_mode_powers_rescore_the_best_design(self, two_mode_problem):
        from repro.power import average_power

        result = synthesize(
            two_mode_problem, SynthesisConfig(seed=2, **FAST)
        )
        psi = two_mode_problem.omsm.probability_vector()
        assert set(result.mode_powers) == set(psi)
        total = sum(result.mode_power(mode) * psi[mode] for mode in psi)
        assert total == pytest.approx(result.average_power, abs=1e-12)
        # A Ψ that puts all weight on one mode selects that mode's
        # total power.
        for mode in psi:
            vertex = {name: float(name == mode) for name in psi}
            assert average_power(
                two_mode_problem, result.best.schedules, vertex
            ) == pytest.approx(result.mode_power(mode), abs=1e-12)
