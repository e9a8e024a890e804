"""Tests for the independent implementation validator."""

import dataclasses
import random

import pytest

from repro.mapping.encoding import MappingString
from repro.scheduling.schedule import ModeSchedule
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import synthesize
from repro.synthesis.evaluator import evaluate_mapping
from repro.validation import ValidationError, validate_implementation

from tests.conftest import make_two_mode_problem

FAST = SynthesisConfig(
    population_size=12, max_generations=15, convergence_generations=5
)


def with_schedule(impl, schedule):
    """``impl`` with one mode's schedule replaced."""
    schedules = {mode: impl.schedules[mode] for mode in impl.schedules}
    schedules[schedule.mode_name] = schedule
    return dataclasses.replace(impl, schedules=schedules)


class TestValidImplementations:
    def test_evaluated_mapping_passes(self, two_mode_problem):
        impl = evaluate_mapping(
            two_mode_problem,
            MappingString.random(two_mode_problem, random.Random(0)),
            SynthesisConfig(),
        )
        validate_implementation(impl)

    def test_synthesis_result_passes(self, two_mode_problem):
        result = synthesize(two_mode_problem, FAST.with_updates(seed=1))
        validate_implementation(result.best)

    def test_dvs_result_passes(self, two_mode_problem):
        result = synthesize(
            two_mode_problem,
            FAST.with_updates(seed=2, dvs=DvsMethod.GRADIENT),
        )
        validate_implementation(result.best)

    def test_infeasible_but_consistent_passes(self):
        # Infeasibility is a property, not an inconsistency: an
        # implementation violating deadlines must still validate.
        problem = make_two_mode_problem(period=0.02)
        impl = evaluate_mapping(
            problem,
            MappingString(problem, ["PE0"] * 7),
            SynthesisConfig(),
        )
        assert not impl.metrics.is_timing_feasible
        validate_implementation(impl)

    def test_many_random_mappings_pass(self, two_mode_problem):
        for seed in range(15):
            impl = evaluate_mapping(
                two_mode_problem,
                MappingString.random(
                    two_mode_problem, random.Random(seed)
                ),
                SynthesisConfig(dvs=DvsMethod.GRADIENT),
            )
            validate_implementation(impl)


class TestTamperedImplementations:
    def make_impl(self, two_mode_problem):
        return evaluate_mapping(
            two_mode_problem,
            MappingString(two_mode_problem, ["PE0"] * 7),
            SynthesisConfig(),
        )

    def test_wrong_average_power_detected(self, two_mode_problem):
        impl = self.make_impl(two_mode_problem)
        broken_metrics = dataclasses.replace(
            impl.metrics, average_power=impl.metrics.average_power * 2
        )
        broken = dataclasses.replace(impl, metrics=broken_metrics)
        with pytest.raises(ValidationError, match="average power"):
            validate_implementation(broken)

    def test_missing_schedule_detected(self, two_mode_problem):
        impl = self.make_impl(two_mode_problem)
        schedules = dict(impl.schedules)
        del schedules["O2"]
        broken = dataclasses.replace(impl, schedules=schedules)
        with pytest.raises(ValidationError, match="no schedule"):
            validate_implementation(broken)

    def test_mapping_mismatch_detected(self, two_mode_problem):
        impl = self.make_impl(two_mode_problem)
        other_mapping = MappingString(
            two_mode_problem,
            ["PE1"] + ["PE0"] * 6,
        )
        broken = dataclasses.replace(impl, mapping=other_mapping)
        with pytest.raises(ValidationError, match="mapped"):
            validate_implementation(broken)

    def test_fabricated_timing_violation_detected(
        self, two_mode_problem
    ):
        impl = self.make_impl(two_mode_problem)
        broken_metrics = dataclasses.replace(
            impl.metrics,
            timing_violation={"O1": {"t1": 0.5}},
        )
        broken = dataclasses.replace(impl, metrics=broken_metrics)
        with pytest.raises(ValidationError, match="timing"):
            validate_implementation(broken)

    def test_fabricated_area_violation_detected(self, two_mode_problem):
        impl = self.make_impl(two_mode_problem)
        broken_metrics = dataclasses.replace(
            impl.metrics, area_violation={"PE1": 50.0}
        )
        broken = dataclasses.replace(impl, metrics=broken_metrics)
        with pytest.raises(ValidationError, match="area"):
            validate_implementation(broken)

    def test_fabricated_transition_violation_detected(
        self, two_mode_problem
    ):
        impl = self.make_impl(two_mode_problem)
        broken_metrics = dataclasses.replace(
            impl.metrics, transition_violation={("O1", "O2"): 0.1}
        )
        broken = dataclasses.replace(impl, metrics=broken_metrics)
        with pytest.raises(ValidationError, match="transition"):
            validate_implementation(broken)

    @pytest.mark.parametrize("label", ["dynamic", "static"])
    def test_wrong_mode_power_detected(self, two_mode_problem, label):
        impl = self.make_impl(two_mode_problem)
        field = f"{label}_power"
        powers = dict(getattr(impl.metrics, field))
        powers["O2"] *= 1.5
        broken_metrics = dataclasses.replace(
            impl.metrics, **{field: powers}
        )
        broken = dataclasses.replace(impl, metrics=broken_metrics)
        with pytest.raises(
            ValidationError, match=f"recorded {label} power"
        ):
            validate_implementation(broken)

    def test_invalid_schedule_detected(self, two_mode_problem):
        impl = self.make_impl(two_mode_problem)
        schedule = impl.schedules["O1"]
        early = [
            dataclasses.replace(task, start=0.0)
            if task.name == "t4"
            else task
            for task in schedule.tasks
        ]
        broken = with_schedule(
            impl, ModeSchedule("O1", early, schedule.comms)
        )
        with pytest.raises(
            ValidationError, match="schedule of mode 'O1' invalid"
        ):
            validate_implementation(broken)


class TestTamperedHardware:
    """Core allocation and voltage-piece checks."""

    def make_impl(self, problem, pe, dvs=DvsMethod.NONE):
        return evaluate_mapping(
            problem,
            MappingString(problem, [pe] * 7),
            SynthesisConfig(dvs=dvs),
        )

    def test_task_without_allocated_core_detected(self, two_mode_problem):
        hardware = self.make_impl(two_mode_problem, "PE1")
        software = self.make_impl(two_mode_problem, "PE0")
        validate_implementation(hardware)
        broken = dataclasses.replace(hardware, cores=software.cores)
        with pytest.raises(ValidationError, match="without an allocated"):
            validate_implementation(broken)

    def test_core_index_beyond_allocation_detected(self, two_mode_problem):
        impl = self.make_impl(two_mode_problem, "PE1")
        schedule = impl.schedules["O1"]
        moved = [
            dataclasses.replace(task, core_index=7)
            if task.name == "t4"
            else task
            for task in schedule.tasks
        ]
        broken = with_schedule(
            impl, ModeSchedule("O1", moved, schedule.comms)
        )
        with pytest.raises(ValidationError, match="uses core index 7"):
            validate_implementation(broken)

    def test_torn_voltage_pieces_detected(self, two_mode_problem):
        impl = self.make_impl(two_mode_problem, "PE0", DvsMethod.GRADIENT)
        schedule = impl.schedules["O1"]
        torn = [
            dataclasses.replace(
                task, pieces=((task.duration / 2, task.pieces[0][1]),)
            )
            if task.name == "t1"
            else task
            for task in schedule.tasks
        ]
        broken = with_schedule(
            impl, ModeSchedule("O1", torn, schedule.comms)
        )
        with pytest.raises(ValidationError, match="voltage pieces sum"):
            validate_implementation(broken)

    def test_piece_voltage_above_nominal_detected(self, two_mode_problem):
        impl = self.make_impl(two_mode_problem, "PE0", DvsMethod.GRADIENT)
        vmax = two_mode_problem.architecture.pe("PE0").nominal_voltage
        schedule = impl.schedules["O1"]
        boosted = [
            dataclasses.replace(
                task, pieces=((task.duration, 2 * vmax),)
            )
            if task.name == "t1"
            else task
            for task in schedule.tasks
        ]
        broken = with_schedule(
            impl, ModeSchedule("O1", boosted, schedule.comms)
        )
        with pytest.raises(ValidationError, match="piece voltage"):
            validate_implementation(broken)
