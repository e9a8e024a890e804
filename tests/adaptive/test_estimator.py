"""Tests for the streaming Ψ estimator."""

import math
import random

import pytest

from repro.adaptive.estimator import PsiEstimator
from repro.errors import SpecificationError
from repro.simulation.markov import ModeProcess
from repro.simulation.trace import generate_trace

from tests.conftest import make_two_mode_problem


class TestConstruction:
    def test_requires_modes(self):
        with pytest.raises(SpecificationError, match="at least one"):
            PsiEstimator([], half_life=1.0)

    def test_rejects_non_positive_half_life(self):
        with pytest.raises(SpecificationError, match="half_life"):
            PsiEstimator(["A"], half_life=0.0)

    def test_rejects_negative_prior_weight(self):
        with pytest.raises(SpecificationError, match="prior_weight"):
            PsiEstimator(
                ["A"], half_life=1.0, prior={"A": 1.0}, prior_weight=-1
            )

    def test_rejects_incomplete_prior(self):
        with pytest.raises(SpecificationError, match="misses"):
            PsiEstimator(
                ["A", "B"], half_life=1.0, prior={"A": 1.0},
                prior_weight=1.0,
            )

    def test_tau_is_half_life_over_ln2(self):
        estimator = PsiEstimator(["A"], half_life=math.log(2.0))
        assert estimator.tau == pytest.approx(1.0)


class TestObserve:
    def test_unknown_mode_rejected(self):
        estimator = PsiEstimator(["A"], half_life=1.0)
        with pytest.raises(SpecificationError, match="no mode"):
            estimator.observe("B", 1.0)

    def test_negative_dwell_rejected(self):
        estimator = PsiEstimator(["A"], half_life=1.0)
        with pytest.raises(SpecificationError, match="non-negative"):
            estimator.observe("A", -1.0)

    @pytest.mark.parametrize(
        "dwell", [float("nan"), float("inf")], ids=["nan", "inf"]
    )
    def test_non_finite_dwell_rejected(self, dwell):
        estimator = PsiEstimator(["A", "B"], half_life=1.0)
        estimator.observe("A", 1.0)
        before = estimator.estimate()
        with pytest.raises(SpecificationError, match="finite"):
            estimator.observe("B", dwell)
        assert estimator.estimate() == before
        assert estimator.observed_time == 1.0

    def test_zero_dwell_is_a_no_op(self):
        estimator = PsiEstimator(["A", "B"], half_life=1.0)
        estimator.observe("A", 0.0)
        assert estimator.observed_time == 0.0
        assert estimator.observations == 0

    def test_single_mode_estimates_to_one(self):
        estimator = PsiEstimator(["A", "B"], half_life=1.0)
        estimator.observe("A", 5.0)
        estimate = estimator.estimate()
        assert estimate["A"] == pytest.approx(1.0)
        assert estimate["B"] == pytest.approx(0.0)

    def test_exact_alternation_converges_to_duty_cycle(self):
        # 30 % A / 70 % B alternation: the steady-state estimate is the
        # duty cycle, independent of the forgetting constant.
        estimator = PsiEstimator(["A", "B"], half_life=5.0)
        for _ in range(400):
            estimator.observe("A", 0.3)
            estimator.observe("B", 0.7)
        estimate = estimator.estimate()
        assert estimate["A"] == pytest.approx(0.3, abs=0.02)
        assert estimate["B"] == pytest.approx(0.7, abs=0.02)

    def test_forgetting_follows_a_regime_change(self):
        # After many half-lives in the new regime, the old regime's
        # mass is forgotten.
        estimator = PsiEstimator(["A", "B"], half_life=2.0)
        for _ in range(100):
            estimator.observe("A", 1.0)
        for _ in range(100):
            estimator.observe("B", 1.0)
        estimate = estimator.estimate()
        assert estimate["B"] > 0.99

    def test_weights_decay_exactly_exponentially(self):
        estimator = PsiEstimator(["A", "B"], half_life=1.0)
        estimator.observe("A", 1.0)
        before = estimator.estimate()["A"]
        assert before == pytest.approx(1.0)
        # One half-life spent entirely in B: A's weight halves while
        # B accumulates tau * (1 - 1/2).
        estimator.observe("B", 1.0)
        tau = estimator.tau
        expected_a = tau * 0.5 * 0.5
        expected_b = tau * 0.5
        estimate = estimator.estimate()
        assert estimate["A"] == pytest.approx(
            expected_a / (expected_a + expected_b)
        )


class TestPrior:
    def test_empty_estimator_returns_prior(self):
        prior = {"A": 0.8, "B": 0.2}
        estimator = PsiEstimator(
            ["A", "B"], half_life=1.0, prior=prior, prior_weight=3.0
        )
        assert estimator.estimate() == pytest.approx(prior)

    def test_empty_estimator_without_prior_is_uniform(self):
        estimator = PsiEstimator(["A", "B"], half_life=1.0)
        assert estimator.estimate() == pytest.approx(
            {"A": 0.5, "B": 0.5}
        )

    def test_prior_fades_as_observation_accumulates(self):
        prior = {"A": 1.0, "B": 0.0}
        estimator = PsiEstimator(
            ["A", "B"], half_life=1.0, prior=prior, prior_weight=0.5
        )
        estimator.observe("B", 0.2)
        early_b = estimator.estimate()["B"]
        for _ in range(50):
            estimator.observe("B", 1.0)
        late_b = estimator.estimate()["B"]
        assert early_b < late_b
        assert late_b > 0.9


class TestConfidence:
    def test_starts_at_zero(self):
        estimator = PsiEstimator(["A"], half_life=1.0)
        assert estimator.confidence() == 0.0

    def test_half_after_tau(self):
        estimator = PsiEstimator(["A"], half_life=math.log(2.0))
        estimator.observe("A", 1.0)  # exactly tau seconds
        assert estimator.confidence() == pytest.approx(1 - math.exp(-1))

    def test_monotone_and_bounded(self):
        estimator = PsiEstimator(["A"], half_life=2.0)
        previous = 0.0
        for _ in range(30):
            estimator.observe("A", 1.0)
            value = estimator.confidence()
            assert previous <= value < 1.0
            previous = value


class TestTraceFeeding:
    def test_observe_trace_accepts_visits_and_pairs(self):
        problem = make_two_mode_problem()
        process = ModeProcess(problem.omsm)
        visits = generate_trace(
            process, horizon=20.0, rng=random.Random(0)
        )
        from_visits = PsiEstimator(problem.omsm.mode_names, half_life=5.0)
        from_visits.observe_trace(visits)
        from_pairs = PsiEstimator(problem.omsm.mode_names, half_life=5.0)
        from_pairs.observe_trace(
            [(v.mode, v.duration) for v in visits]
        )
        assert from_visits.estimate() == pytest.approx(
            from_pairs.estimate()
        )
        assert from_visits.observed_time == pytest.approx(
            from_pairs.observed_time
        )

    def test_long_trace_estimate_approaches_psi(self):
        problem = make_two_mode_problem()
        process = ModeProcess(problem.omsm)
        visits = generate_trace(
            process, horizon=2000.0, rng=random.Random(7)
        )
        estimator = PsiEstimator(
            problem.omsm.mode_names, half_life=500.0
        )
        estimator.observe_trace(visits)
        psi = problem.omsm.probability_vector()
        estimate = estimator.estimate()
        for mode, value in psi.items():
            assert estimate[mode] == pytest.approx(value, abs=0.08)


class TestReset:
    def test_reset_clears_observations_keeps_prior(self):
        prior = {"A": 0.9, "B": 0.1}
        estimator = PsiEstimator(
            ["A", "B"], half_life=1.0, prior=prior, prior_weight=1.0
        )
        estimator.observe("B", 10.0)
        estimator.reset()
        assert estimator.observed_time == 0.0
        assert estimator.confidence() == 0.0
        assert estimator.estimate() == pytest.approx(prior)
