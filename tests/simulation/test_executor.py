"""Tests for the trace executor and Equation-(1) validation."""

import copy

import pytest

from repro.architecture import PEKind
from repro.benchgen import registry
from repro.errors import SpecificationError
from repro.mapping.encoding import MappingString
from repro.simulation.executor import simulate
from repro.simulation.trace import ModeVisit
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer
from repro.synthesis.evaluator import evaluate_mapping

from tests.conftest import make_two_mode_problem


def implementation(problem=None, genes=None):
    problem = problem or make_two_mode_problem()
    genome = MappingString(
        problem, genes or ["PE0"] * problem.genome_length()
    )
    impl = evaluate_mapping(problem, genome, SynthesisConfig())
    assert impl is not None
    return impl


class TestExplicitTraces:
    def test_single_mode_visit(self):
        impl = implementation()
        problem = impl.problem
        period = problem.omsm.mode("O1").period
        trace = [ModeVisit("O1", 0.0, 10 * period)]
        report = simulate(impl, trace=trace)
        assert report.iterations["O1"] == 10
        assert report.iterations["O2"] == 0
        assert report.transitions == 0
        expected_static = (
            impl.metrics.static_power["O1"] * 10 * period
        )
        assert report.static_energy == pytest.approx(expected_static)
        expected_dynamic = (
            impl.schedules["O1"].total_dynamic_energy() * 10
        )
        assert report.dynamic_energy == pytest.approx(expected_dynamic)

    def test_partial_iteration_counts_as_started(self):
        impl = implementation()
        period = impl.problem.omsm.mode("O1").period
        trace = [ModeVisit("O1", 0.0, 2.5 * period)]
        report = simulate(impl, trace=trace)
        assert report.iterations["O1"] == 3

    def test_mode_change_counted(self):
        impl = implementation()
        period = impl.problem.omsm.mode("O1").period
        trace = [
            ModeVisit("O1", 0.0, 5 * period),
            ModeVisit("O2", 5 * period, 10 * period),
        ]
        report = simulate(impl, trace=trace)
        assert report.transitions == 1

    def test_repeated_mode_visits_are_not_mode_changes(self):
        impl = implementation()
        period = impl.problem.omsm.mode("O1").period
        trace = [
            ModeVisit("O1", 0.0, 2 * period),
            ModeVisit("O1", 2 * period, 5 * period),
        ]
        report = simulate(impl, trace=trace)
        assert report.transitions == 0
        assert report.iterations["O1"] == 5
        assert report.mode_time["O1"] == pytest.approx(5 * period)

    def test_unknown_mode_rejected(self):
        impl = implementation()
        with pytest.raises(SpecificationError, match="unknown mode"):
            simulate(impl, trace=[ModeVisit("ghost", 0.0, 1.0)])

    def test_empty_trace_rejected(self):
        impl = implementation()
        with pytest.raises(SpecificationError):
            simulate(impl, trace=[])

    @pytest.mark.parametrize(
        "visits",
        [
            [("O1", 0, 5), ("O2", 50, 55)],
            [("O1", 0, 5), ("O2", 3, 8)],
            [("O1", 10, 0)],
        ],
        ids=["gap", "overlap", "negative-duration"],
    )
    def test_non_contiguous_trace_rejected(self, visits):
        # The report's horizon spans the whole trace, so every visit
        # must start where the previous one ended.
        impl = implementation()
        period = impl.problem.omsm.mode("O1").period
        trace = [
            ModeVisit(mode, start * period, end * period)
            for mode, start, end in visits
        ]
        with pytest.raises(SpecificationError, match="trace visit"):
            simulate(impl, trace=trace)


class TestGeneratedTraces:
    def test_same_seed_same_report(self):
        impl = implementation()
        first = simulate(impl, horizon=200.0, seed=4)
        second = simulate(impl, horizon=200.0, seed=4)
        assert first == second

    def test_report_spans_the_horizon(self):
        impl = implementation()
        report = simulate(impl, horizon=123.0, seed=1)
        assert report.horizon == pytest.approx(123.0)
        assert sum(report.mode_time.values()) == pytest.approx(123.0)

    @pytest.mark.parametrize(
        "horizon",
        [float("nan"), float("inf"), 0.0],
        ids=["nan", "inf", "zero"],
    )
    def test_bad_horizon_rejected(self, horizon):
        impl = implementation()
        with pytest.raises(SpecificationError, match="horizon"):
            simulate(impl, horizon=horizon)


class TestEquationOneConvergence:
    def test_reference_is_the_designs_equation_one(self):
        # The simulator compares against the power the synthesis
        # reported: Equation (1) under the true Ψ, whatever the trace.
        impl = implementation()
        period = impl.problem.omsm.mode("O1").period
        report = simulate(impl, trace=[ModeVisit("O1", 0.0, period)])
        assert report.analytical_power == impl.metrics.average_power

    def test_simulated_power_matches_analytical(self):
        impl = implementation()
        report = simulate(impl, horizon=2000.0, seed=5)
        # Long horizon: the simulated average power approaches the
        # Equation (1) estimate (within the stochastic mode mix).
        assert report.average_power == pytest.approx(
            report.analytical_power, rel=0.1
        )

    def test_longer_horizon_reduces_error(self):
        impl = implementation()
        short = simulate(impl, horizon=50.0, seed=3)
        long = simulate(impl, horizon=5000.0, seed=3)
        assert abs(long.relative_error) <= abs(short.relative_error) + 0.02

    def test_mixed_mapping_also_converges(self):
        problem = make_two_mode_problem()
        impl = implementation(
            problem,
            ["PE0", "PE1", "PE0", "PE1", "PE0", "PE1", "PE0"],
        )
        report = simulate(impl, horizon=2000.0, seed=9)
        assert report.average_power == pytest.approx(
            report.analytical_power, rel=0.1
        )

    def test_mode_fractions_near_psi(self):
        impl = implementation()
        report = simulate(impl, horizon=3000.0, seed=2)
        psi = impl.problem.omsm.probability_vector()
        for mode, target in psi.items():
            assert report.mode_fraction(mode) == pytest.approx(
                target, abs=0.1
            )


class TestReconfigurationAccounting:
    def make_fpga_impl(self):
        from tests.conftest import make_two_mode_problem

        problem = make_two_mode_problem(
            hw_kind=PEKind.FPGA,
            asic_area=800.0,
            reconfig_time_per_cell=1e-5,
            transition_limit=1.0,
        )
        genes = []
        for mode in problem.omsm.modes:
            for task, candidates in problem.gene_space(mode.name):
                genes.append(
                    "PE1" if "PE1" in candidates else candidates[0]
                )
        genome = MappingString(problem, genes)
        impl = evaluate_mapping(problem, genome, SynthesisConfig())
        assert impl is not None
        return impl

    def test_reconfiguration_time_charged(self):
        impl = self.make_fpga_impl()
        period = impl.problem.omsm.mode("O1").period
        trace = [
            ModeVisit("O1", 0.0, 50 * period),
            ModeVisit("O2", 50 * period, 100 * period),
        ]
        report = simulate(impl, trace=trace)
        assert report.reconfiguration_time > 0

    def test_reconfiguration_energy_optional(self):
        impl = self.make_fpga_impl()
        period = impl.problem.omsm.mode("O1").period
        trace = [
            ModeVisit("O1", 0.0, 50 * period),
            ModeVisit("O2", 50 * period, 100 * period),
        ]
        without = simulate(impl, trace=trace)
        with_energy = simulate(
            impl, trace=trace, reconfig_energy_per_cell=1e-6
        )
        assert without.reconfiguration_energy == 0.0
        assert with_energy.reconfiguration_energy > 0
        assert (
            with_energy.total_energy
            > without.total_energy
        )

    def test_reconfiguration_delays_the_first_iteration(self):
        impl = self.make_fpga_impl()
        period = impl.problem.omsm.mode("O1").period
        overhead = impl.cores.transition_time("O1", "O2")
        assert 0 < overhead < period
        trace = [
            ModeVisit("O1", 0.0, period),
            ModeVisit("O2", period, 3 * period + overhead / 2),
        ]
        report = simulate(impl, trace=trace)
        # 2 periods + overhead/2 of dwell, minus the overhead, starts
        # only 2 iterations; static power still runs for the full stay.
        assert report.iterations["O2"] == 2
        assert report.reconfiguration_time == pytest.approx(overhead)
        assert report.mode_time["O2"] == pytest.approx(
            2 * period + overhead / 2
        )

    def test_overhead_longer_than_visit_starts_no_iteration(self):
        impl = self.make_fpga_impl()
        period = impl.problem.omsm.mode("O1").period
        overhead = impl.cores.transition_time("O1", "O2")
        stay = overhead / 3
        trace = [
            ModeVisit("O1", 0.0, period),
            ModeVisit("O2", period, period + stay),
        ]
        report = simulate(impl, trace=trace)
        assert report.iterations["O2"] == 0
        # The charge is capped at the stay it interrupts.
        assert report.reconfiguration_time == pytest.approx(stay)

    def test_reconfiguration_energy_follows_the_cells_loaded(self):
        # The transition time and the reconfiguration energy both
        # count the cells a mode change loads, so their ratio is the
        # per-cell cost ratio.
        impl = self.make_fpga_impl()
        fpga = impl.problem.architecture.pe("PE1")
        period = impl.problem.omsm.mode("O1").period
        trace = [
            ModeVisit("O1", 0.0, 50 * period),
            ModeVisit("O2", 50 * period, 100 * period),
        ]
        report = simulate(
            impl, trace=trace, reconfig_energy_per_cell=2e-6
        )
        cells = report.reconfiguration_time / fpga.reconfig_time_per_cell
        assert cells > 0
        assert report.reconfiguration_energy == pytest.approx(cells * 2e-6)
        assert report.total_energy == pytest.approx(
            report.dynamic_energy
            + report.static_energy
            + report.reconfiguration_energy
        )

    def test_an_fpga_without_reconfiguration_time_still_costs_energy(self):
        # A zero reconfiguration time per cell (the ProcessingElement
        # default) makes a mode change free in time, not in cells: the
        # FPGA still loads its new cores and is charged for each cell.
        problem = copy.deepcopy(registry.get("mul1"))
        (fpga,) = [
            pe for pe in problem.architecture.pes if pe.kind is PEKind.FPGA
        ]
        fpga.reconfig_time_per_cell = 0.0
        design = MultiModeSynthesizer(
            problem,
            SynthesisConfig(population_size=12, max_generations=10, seed=3),
        ).run().best
        trace = [
            ModeVisit(("mode0", "mode1")[i % 2], 10.0 * i, 10.0 * (i + 1))
            for i in range(6)
        ]
        report = simulate(design, trace=trace, reconfig_energy_per_cell=1e-6)
        cells = sum(
            design.cores.loaded_cells(fpga.name, left.mode, right.mode)
            for left, right in zip(trace, trace[1:])
        )
        assert cells == pytest.approx(7956, abs=1)
        assert report.reconfiguration_time == 0.0
        assert report.reconfiguration_energy == pytest.approx(cells * 1e-6)

    def test_summary_text(self):
        impl = implementation()
        report = simulate(impl, horizon=100.0, seed=1)
        text = report.summary()
        assert "simulated power" in text
        assert "Equation (1)" in text
