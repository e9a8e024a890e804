"""Unit tests for hardware core allocation."""

import random

import pytest

from repro.architecture import PEKind
from repro.benchgen import registry
from repro.engine.decode_cache import context_for
from repro.mapping.cores import allocate_cores
from repro.mapping.encoding import MappingString
from repro.problem import Problem
from repro.scheduling.mobility import compute_mobilities
from repro.specification import OMSM, Mode

from tests.conftest import make_parallel_hw_problem, make_two_mode_problem
from tests.oracles import cores_reference


def all_hw_genome(problem):
    """Map every task that supports PE1/HW onto it."""
    mapping = {}
    for mode in problem.omsm.modes:
        mapping[mode.name] = {}
        for task in mode.task_graph:
            candidates = problem.technology.candidate_pes(task.task_type)
            hardware = [
                c
                for c in candidates
                if problem.architecture.pe(c).is_hardware
            ]
            mapping[mode.name][task.name] = (
                hardware[0] if hardware else candidates[0]
            )
    return MappingString.from_mapping(problem, mapping)


class TestBaseAllocation:
    def test_one_core_per_mapped_type(self):
        problem = make_two_mode_problem(asic_area=10_000.0)
        genome = all_hw_genome(problem)
        cores = allocate_cores(problem, genome)
        # Mode O1 has types A (twice), B, C on PE1.
        assert cores.available_cores("PE1", "O1", "B") == 1
        assert cores.available_cores("PE1", "O1", "C") == 1
        assert cores.available_cores("PE1", "O1", "A") >= 1

    def test_unmapped_type_gets_no_core(self):
        problem = make_two_mode_problem()
        genome = MappingString(
            problem, ["PE0"] * problem.genome_length()
        )
        cores = allocate_cores(problem, genome)
        assert cores.available_cores("PE1", "O1", "A") == 0
        assert cores.area_used["PE1"] == 0.0
        assert cores.is_area_feasible()

    def test_software_pe_never_in_counts(self):
        problem = make_two_mode_problem()
        genome = MappingString(
            problem, ["PE0"] * problem.genome_length()
        )
        cores = allocate_cores(problem, genome)
        assert "PE0" not in cores.counts


class TestParallelDuplication:
    def test_extra_cores_for_parallel_urgent_tasks(self):
        # Four independent type-P tasks; the period is tight enough
        # that mobility < exec time, so extra cores are provisioned.
        problem = make_parallel_hw_problem(period=0.012)
        genome = MappingString.from_mapping(
            problem,
            {
                "M": {
                    "src": "CPU",
                    "p0": "HW",
                    "p1": "HW",
                    "p2": "HW",
                    "p3": "HW",
                    "join": "CPU",
                }
            },
        )
        cores = allocate_cores(problem, genome)
        assert cores.available_cores("HW", "M", "P") > 1

    def test_no_duplication_with_ample_slack(self):
        # With a very long period, mobility is huge and one core is
        # enough.
        problem = make_parallel_hw_problem(period=10.0)
        genome = MappingString.from_mapping(
            problem,
            {
                "M": {
                    "src": "CPU",
                    "p0": "HW",
                    "p1": "HW",
                    "p2": "HW",
                    "p3": "HW",
                    "join": "CPU",
                }
            },
        )
        cores = allocate_cores(problem, genome)
        assert cores.available_cores("HW", "M", "P") == 1

    def test_duplication_respects_area(self):
        # Area only fits one 400-cell P core (plus nothing else).
        problem = make_parallel_hw_problem(period=0.012)
        problem.architecture.pe("HW").area = 450.0
        genome = MappingString.from_mapping(
            problem,
            {
                "M": {
                    "src": "CPU",
                    "p0": "HW",
                    "p1": "HW",
                    "p2": "HW",
                    "p3": "HW",
                    "join": "CPU",
                }
            },
        )
        cores = allocate_cores(problem, genome)
        assert cores.available_cores("HW", "M", "P") == 1
        assert cores.is_area_feasible()


class TestAsicAreaAccounting:
    def test_union_over_modes(self):
        # ASIC config is static: types of BOTH modes must coexist.
        problem = make_two_mode_problem(asic_area=10_000.0)
        genome = all_hw_genome(problem)
        cores = allocate_cores(problem, genome)
        # O1 uses A, B, C; O2 uses D, E, F -> six cores of 250 cells.
        assert cores.area_used["PE1"] >= 6 * 250.0

    def test_violation_reported(self):
        problem = make_two_mode_problem(asic_area=600.0)
        genome = all_hw_genome(problem)
        cores = allocate_cores(problem, genome)
        assert not cores.is_area_feasible()
        assert cores.area_violations()["PE1"] > 0
        assert cores.area_violation("PE1") == pytest.approx(
            cores.area_used["PE1"] - 600.0
        )

    def test_counts_identical_across_modes(self):
        problem = make_two_mode_problem(asic_area=10_000.0)
        genome = all_hw_genome(problem)
        cores = allocate_cores(problem, genome)
        assert cores.counts["PE1"]["O1"] == cores.counts["PE1"]["O2"]

    def test_software_pe_has_no_violation(self):
        problem = make_two_mode_problem()
        genome = MappingString(problem, ["PE0"] * 7)
        cores = allocate_cores(problem, genome)
        assert cores.area_violation("PE0") == 0.0


class TestFpgaAreaAccounting:
    def test_per_mode_configuration(self):
        problem = make_two_mode_problem(
            hw_kind=PEKind.FPGA,
            asic_area=800.0,
            reconfig_time_per_cell=1e-6,
        )
        genome = all_hw_genome(problem)
        cores = allocate_cores(problem, genome)
        # Each mode needs only its own 3 types (<=750 cells): fits,
        # although the union (6 types = 1500 cells) would not.
        assert cores.is_area_feasible()
        assert cores.counts["PE1"]["O1"] != cores.counts["PE1"]["O2"]

    def test_transition_time_charges_loaded_cores(self):
        problem = make_two_mode_problem(
            hw_kind=PEKind.FPGA,
            asic_area=800.0,
            reconfig_time_per_cell=1e-6,
        )
        genome = all_hw_genome(problem)
        cores = allocate_cores(problem, genome)
        # O1 -> O2 must load D, E, F (3 cores x 250 cells).
        expected = 3 * 250.0 * 1e-6
        assert cores.transition_time("O1", "O2") == pytest.approx(expected)

    def test_transition_times_for_all_transitions(self):
        problem = make_two_mode_problem(
            hw_kind=PEKind.FPGA,
            asic_area=800.0,
            reconfig_time_per_cell=1e-6,
        )
        genome = all_hw_genome(problem)
        cores = allocate_cores(problem, genome)
        times = cores.transition_times()
        assert set(times) == {("O1", "O2"), ("O2", "O1")}

    def test_transition_violation_detected(self):
        problem = make_two_mode_problem(
            hw_kind=PEKind.FPGA,
            asic_area=800.0,
            reconfig_time_per_cell=1e-3,  # very slow reconfiguration
            transition_limit=0.01,
        )
        genome = all_hw_genome(problem)
        cores = allocate_cores(problem, genome)
        violations = cores.transition_violations()
        assert violations
        for ratio in violations.values():
            assert ratio > 1.0

    def test_asic_never_causes_transition_time(self):
        problem = make_two_mode_problem(asic_area=10_000.0)
        genome = all_hw_genome(problem)
        cores = allocate_cores(problem, genome)
        assert cores.transition_time("O1", "O2") == 0.0
        assert cores.transition_violations() == {}


def _genomes(problem, rng, count):
    """Random, software-biased and mutation-chain genomes, in turn."""
    genome = MappingString.random(problem, rng)
    partner = MappingString.random_software_biased(problem, rng)
    for step in range(count):
        kind = step % 3
        if kind == 0:
            yield MappingString.random(problem, rng)
        elif kind == 1:
            yield MappingString.random_software_biased(problem, rng)
        else:
            roll = rng.random()
            if roll < 0.5:
                genome = genome.mutate(rng, 4.0 / len(genome))
            elif roll < 0.8:
                genome, partner = genome.crossover_two_point(partner, rng)
            else:
                index = rng.randrange(len(genome))
                genome = genome.with_gene(
                    index, rng.choice(genome.candidates_at(index))
                )
            yield genome


def _tightened(problem, factor):
    """The instance with every mode period scaled by ``factor``.

    A period is never cut below the mode's largest task deadline.
    """
    modes = []
    for mode in problem.omsm.modes:
        floor = max(
            (t.deadline for t in mode.task_graph if t.deadline is not None),
            default=0.0,
        )
        modes.append(
            Mode(
                mode.name,
                mode.task_graph,
                mode.probability,
                max(mode.period * factor, floor),
            )
        )
    omsm = OMSM(problem.omsm.name, modes, problem.omsm.transitions)
    return Problem(omsm, problem.architecture, problem.technology)


class TestMatchesFrozenAllocator:
    """The decode-table allocator against the seed's context-free copy.

    ``allocate_cores`` runs the evaluation pipeline's stages (decode
    tables, ``mode_demand``, ``combine_cores``); the frozen copy in
    :mod:`tests.oracles.cores_reference` walks the task graph and the
    genome directly.  Counts, areas and reconfiguration times must be
    equal bit for bit, and so must every mode's mobilities.  The
    shipped periods leave so much slack that no extra core is ever
    provisioned, so every instance also runs with its periods cut to a
    tenth, where about half the genomes get extra cores.
    """

    @pytest.mark.parametrize("period_factor", [1.0, 0.1])
    @pytest.mark.parametrize("name", registry.names())
    def test_registry_instance(self, name, period_factor):
        problem = _tightened(registry.get(name), period_factor)
        context = context_for(problem)
        technology = problem.technology
        rng = random.Random(1803)
        count = 6 if name.startswith("stress") else 30
        for step, genome in enumerate(_genomes(problem, rng, count)):
            runtime = allocate_cores(problem, genome)
            frozen = cores_reference.allocate_cores(problem, genome)
            where = f"{name}, genome {step}"
            assert runtime.counts == frozen.counts, where
            assert runtime.area_used == frozen.area_used, where
            assert runtime.transition_times() == frozen.transition_times()
            for mode in problem.omsm.modes:
                mapping = genome.mode_mapping(mode.name)

                def exec_time(task, _mode=mode, _mapping=mapping):
                    return technology.implementation(
                        _mode.task_graph.task(task).task_type,
                        _mapping[task],
                    ).exec_time

                expected = list(
                    cores_reference.compute_mobilities(mode, exec_time).items()
                )
                assert list(
                    context.compute_mobilities(mode.name, mapping).items()
                ) == expected, where
                assert list(
                    compute_mobilities(mode, exec_time).items()
                ) == expected, where
