"""Statistical soundness of the semi-Markov mode process.

Long seeded traces must spend a fraction of time in each mode that
converges to the OMSM's Ψ — exercised for *both* transition-matrix
constructions: Metropolis–Hastings (symmetric transition graphs, the
two-mode fixture) and the LP fallback (general digraphs: the smart
phone OMSM has one-way transitions).  Every registered instance must
also yield a chain whose exact stationary solve reproduces Ψ.
"""

import random

import pytest

from repro.benchgen import registry
from repro.benchgen.smartphone import smartphone_problem
from repro.simulation.markov import ModeProcess
from repro.simulation.trace import generate_trace

from tests.conftest import make_two_mode_problem
from tests.simulation.test_trace import time_fractions


def empirical_fractions(process, horizon, seed):
    visits = generate_trace(process, horizon, random.Random(seed))
    return time_fractions(visits)


class TestMetropolisHastingsConstruction:
    """Two-mode fixture: symmetric graph → MH matrix."""

    @pytest.fixture(scope="class")
    def process(self):
        return ModeProcess(make_two_mode_problem().omsm)

    def test_uses_the_symmetric_construction(self, process):
        assert process._symmetric_graph_suffices()

    def test_stationary_time_fractions_match_psi(self, process):
        psi = process.omsm.probability_vector()
        stationary = process.stationary_time_fractions()
        for mode, value in psi.items():
            assert stationary[mode] == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_long_trace_time_fractions_converge(self, process, seed):
        psi = process.omsm.probability_vector()
        fractions = empirical_fractions(process, 20_000.0, seed)
        for mode, value in psi.items():
            assert fractions.get(mode, 0.0) == pytest.approx(
                value, abs=0.05
            )

    def test_longer_traces_converge_closer(self, process):
        psi = process.omsm.probability_vector()

        def error(horizon):
            fractions = empirical_fractions(process, horizon, seed=3)
            return sum(
                abs(fractions.get(mode, 0.0) - value)
                for mode, value in psi.items()
            )

        assert error(50_000.0) < error(500.0)


class TestLinearProgramConstruction:
    """Smart phone OMSM: one-way transitions force the LP fallback."""

    @pytest.fixture(scope="class")
    def process(self):
        return ModeProcess(smartphone_problem().omsm)

    def test_requires_the_lp_construction(self, process):
        assert not process._symmetric_graph_suffices()

    def test_rows_are_stochastic(self, process):
        for row in process.transition_matrix.values():
            assert sum(row.values()) == pytest.approx(1.0)
            assert all(p >= -1e-12 for p in row.values())

    def test_stationary_time_fractions_match_psi(self, process):
        psi = process.omsm.probability_vector()
        stationary = process.stationary_time_fractions()
        for mode, value in psi.items():
            assert stationary[mode] == pytest.approx(value, abs=1e-6)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", (0, 1))
    def test_long_trace_time_fractions_converge(self, process, seed):
        psi = process.omsm.probability_vector()
        fractions = empirical_fractions(process, 30_000.0, seed)
        for mode, value in psi.items():
            assert fractions.get(mode, 0.0) == pytest.approx(
                value, abs=0.05
            )


class TestEveryRegisteredInstance:
    """``repro-mm simulate`` accepts every registered instance, so each
    one must admit a mode process that realises its Ψ over its own
    transition graph, whichever construction it needs."""

    @pytest.fixture(scope="class", params=registry.names())
    def process(self, request):
        return ModeProcess(registry.get(request.param).omsm)

    def test_stationary_time_fractions_match_psi(self, process):
        psi = process.omsm.probability_vector()
        stationary = process.stationary_time_fractions()
        assert set(stationary) == set(psi)
        for mode, value in psi.items():
            assert stationary[mode] == pytest.approx(value, abs=1e-6)

    def test_jump_chain_follows_omsm_transitions(self, process):
        omsm = process.omsm
        for src, row in process.transition_matrix.items():
            assert sum(row.values()) == pytest.approx(1.0)
            for dst, probability in row.items():
                assert probability >= 0.0
                if dst != src and probability > 0.0:
                    assert omsm.has_transition(src, dst), (src, dst)
