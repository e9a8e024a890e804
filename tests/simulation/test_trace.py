"""Tests for mode-trace generation."""

import random
from typing import Sequence

import pytest

from repro.errors import SpecificationError
from repro.simulation.markov import ModeProcess
from repro.simulation.trace import ModeVisit, generate_trace

from tests.conftest import make_two_mode_problem


def time_fractions(visits: Sequence[ModeVisit]) -> dict:
    """Observed fraction of time per mode in a trace."""
    total = sum(v.duration for v in visits)
    fractions: dict = {}
    for visit in visits:
        fractions[visit.mode] = (
            fractions.get(visit.mode, 0.0) + visit.duration
        )
    return {mode: value / total for mode, value in fractions.items()}


def transition_count(visits: Sequence[ModeVisit]) -> int:
    """Number of mode changes in a trace."""
    return max(0, len(visits) - 1)


@pytest.fixture
def process():
    return ModeProcess(make_two_mode_problem().omsm)


class TestGeneration:
    def test_trace_covers_horizon(self, process):
        trace = generate_trace(process, 10.0, random.Random(0))
        assert trace[0].start == 0.0
        assert trace[-1].end == pytest.approx(10.0)
        for left, right in zip(trace, trace[1:]):
            assert right.start == pytest.approx(left.end)

    def test_visits_alternate_modes(self, process):
        trace = generate_trace(process, 50.0, random.Random(1))
        for left, right in zip(trace, trace[1:]):
            assert left.mode != right.mode

    def test_durations_positive(self, process):
        trace = generate_trace(process, 20.0, random.Random(2))
        for visit in trace:
            assert visit.duration > 0

    def test_initial_mode_honoured(self, process):
        trace = generate_trace(
            process, 5.0, random.Random(3), initial_mode="O1"
        )
        assert trace[0].mode == "O1"

    def test_unknown_initial_mode_rejected(self, process):
        with pytest.raises(SpecificationError):
            generate_trace(
                process, 5.0, random.Random(3), initial_mode="ghost"
            )

    def test_non_positive_horizon_rejected(self, process):
        with pytest.raises(SpecificationError):
            generate_trace(process, 0.0, random.Random(0))

    @pytest.mark.parametrize(
        "horizon", [float("nan"), float("inf")], ids=["nan", "inf"]
    )
    def test_non_finite_horizon_rejected(self, process, horizon):
        with pytest.raises(SpecificationError, match="finite and positive"):
            generate_trace(process, horizon, random.Random(0))

    def test_deterministic_per_seed(self, process):
        a = generate_trace(process, 30.0, random.Random(7))
        b = generate_trace(process, 30.0, random.Random(7))
        assert [(v.mode, v.start, v.end) for v in a] == [
            (v.mode, v.start, v.end) for v in b
        ]


class TestStatistics:
    def test_long_run_fractions_approach_psi(self, process):
        trace = generate_trace(process, 3000.0, random.Random(11))
        fractions = time_fractions(trace)
        psi = process.omsm.probability_vector()
        for mode, target in psi.items():
            assert fractions.get(mode, 0.0) == pytest.approx(
                target, abs=0.08
            )

    def test_transition_count(self, process):
        trace = generate_trace(process, 100.0, random.Random(4))
        assert transition_count(trace) == len(trace) - 1
