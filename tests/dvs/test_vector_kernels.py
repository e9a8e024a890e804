"""Differential fuzz oracle for the array PV-DVS kernels.

Both voltage-selection methods of :mod:`repro.dvs.pv_dvs` — the
gradient descent and the uniform single-stretch-factor baseline — must
be *bit-identical* to the frozen seed implementation
(:mod:`tests.oracles.pv_dvs_reference`): every float of every task and
comm, not approximately.  The corpus covers:

* random-mapping schedules over mul1 / mul3 / smartphone (software
  DVS) and mul8, whose DVS-enabled FPGA puts shared-rail hardware
  segment chains (Fig. 5) and their replay through both methods and,
  for the gradient descent, both rail modes;
* replayed GA-style mutation chains — successive single/few-gene
  perturbations of one genome, the schedule distribution the engine
  actually feeds the kernels;
* the synthetic micro problems of the dvs test fixtures.
"""

import random

import pytest

from repro.benchgen import registry
from repro.dvs.pv_dvs import scale_schedule, uniform_scale_schedule
from repro.engine.decode_cache import context_for
from repro.mapping.cores import allocate_cores
from repro.mapping.encoding import MappingString
from repro.scheduling.list_scheduler import schedule_mode

from tests.conftest import make_parallel_hw_problem, make_two_mode_problem
from tests.oracles.pv_dvs_reference import (
    reference_scale_schedule,
    reference_uniform_scale_schedule,
)

INSTANCES = ("mul1", "mul3", "mul8", "smartphone")


def _schedules_for(problem, genome):
    """All schedulable (mode, schedule) pairs of one genome."""
    try:
        cores = allocate_cores(problem, genome)
    except Exception:
        return
    for mode in problem.omsm.modes:
        try:
            yield mode, schedule_mode(
                problem, mode, genome.mode_mapping(mode.name), cores
            )
        except Exception:
            continue


def _assert_identical(a, b, label):
    assert len(a.tasks) == len(b.tasks), label
    assert len(a.comms) == len(b.comms), label
    for left, right in zip(a.tasks, b.tasks):
        assert left == right, (label, left, right)
    for left, right in zip(a.comms, b.comms):
        assert left == right, (label, left, right)


def _check_all_oracles(problem, mode, schedule, context, shared_rail):
    reference = reference_scale_schedule(
        problem, mode, schedule, shared_rail=shared_rail
    )
    kernel = scale_schedule(
        problem, mode, schedule, shared_rail=shared_rail, context=context
    )
    _assert_identical(reference, kernel, f"{mode.name}/gradient")


def _check_uniform(problem, mode, schedule, context):
    reference = reference_uniform_scale_schedule(problem, mode, schedule)
    kernel = uniform_scale_schedule(problem, mode, schedule, context=context)
    _assert_identical(reference, kernel, f"{mode.name}/uniform")


@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("shared_rail", [True, False])
def test_random_mapping_corpus_bit_identical(name, shared_rail):
    problem = registry.get(name)
    context = context_for(problem)
    rng = random.Random(1234)
    checked = 0
    for _ in range(8):
        genome = MappingString.random(problem, rng)
        for mode, schedule in _schedules_for(problem, genome):
            _check_all_oracles(
                problem, mode, schedule, context, shared_rail
            )
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", INSTANCES)
def test_mutation_chain_corpus_bit_identical(name):
    # GA-style trajectory: a random genome perturbed gene by gene; the
    # schedule deltas mirror what the synthesis loop actually produces.
    problem = registry.get(name)
    context = context_for(problem)
    rng = random.Random(99)
    genome = MappingString.random(problem, rng)
    checked = 0
    for _ in range(12):
        genome = genome.mutate(rng, per_gene_rate=0.08)
        for mode, schedule in _schedules_for(problem, genome):
            _check_all_oracles(problem, mode, schedule, context, True)
            checked += 1
    assert checked > 0


def test_micro_problems_bit_identical():
    for problem in (
        make_two_mode_problem(period=0.5),
        make_parallel_hw_problem(),
    ):
        context = context_for(problem)
        rng = random.Random(7)
        for _ in range(6):
            genome = MappingString.random(problem, rng)
            for mode, schedule in _schedules_for(problem, genome):
                for shared_rail in (True, False):
                    _check_all_oracles(
                        problem, mode, schedule, context, shared_rail
                    )
                _check_uniform(problem, mode, schedule, context)


@pytest.mark.parametrize("name", INSTANCES)
def test_uniform_random_mapping_corpus_bit_identical(name):
    # Same corpus as the gradient test above (uniform scaling always
    # uses shared rails, so there is no rail parameter).
    problem = registry.get(name)
    context = context_for(problem)
    rng = random.Random(1234)
    checked = 0
    for _ in range(8):
        genome = MappingString.random(problem, rng)
        for mode, schedule in _schedules_for(problem, genome):
            _check_uniform(problem, mode, schedule, context)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", INSTANCES)
def test_uniform_mutation_chain_corpus_bit_identical(name):
    problem = registry.get(name)
    context = context_for(problem)
    rng = random.Random(99)
    genome = MappingString.random(problem, rng)
    checked = 0
    for _ in range(12):
        genome = genome.mutate(rng, per_gene_rate=0.08)
        for mode, schedule in _schedules_for(problem, genome):
            _check_uniform(problem, mode, schedule, context)
            checked += 1
    assert checked > 0
