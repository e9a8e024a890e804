"""The array list scheduler against the frozen object scheduler.

:func:`repro.scheduling.list_scheduler.schedule_mode` fills a
struct-of-arrays :class:`~repro.scheduling.schedule.ModeSchedule`; the
frozen copy under ``tests/oracles`` builds ``ScheduledTask`` /
``ScheduledComm`` objects.  Every field of every task and comm must be
bit-identical, and so must the figures the evaluator reads from the
arrays (dynamic energy, active components, makespan, timing
violations), recomputed here from the frozen objects with the object
formulas.  The corpus covers random mappings and GA-style mutation
chains over mul1, mul3, mul8 and the smartphone, with and without a
decode context, plus the micro fixtures and a hardware component that
offers more cores than the mode books.
"""

import random

import pytest

from repro.benchgen import registry
from repro.dvs.pv_dvs import scale_schedule, uniform_scale_schedule
from repro.engine.decode_cache import context_for
from repro.mapping.cores import CoreAllocation, allocate_cores
from repro.mapping.encoding import MappingString
from repro.scheduling.list_scheduler import schedule_mode
from repro.scheduling.schedule import TIME_EPS

from tests.conftest import make_parallel_hw_problem, make_two_mode_problem
from tests.oracles import list_scheduler_reference
from tests.oracles.pv_dvs_reference import (
    reference_scale_schedule,
    reference_uniform_scale_schedule,
)

INSTANCES = ("mul1", "mul3", "mul8", "smartphone")


def _resource_order(tasks, comms):
    """Per-resource activity names by start, as the object view sorts."""
    on_resource = {}
    for task in tasks:
        key = (
            task.pe
            if task.core_index is None
            else (task.pe, task.task_type, task.core_index)
        )
        on_resource.setdefault(key, []).append(task)
    on_link = {}
    for comm in comms:
        if comm.link is not None:
            on_link.setdefault(comm.link, []).append(comm)
    task_order = sorted(
        tuple(t.name for t in sorted(group, key=lambda t: (t.start, t.name)))
        for group in on_resource.values()
    )
    comm_order = sorted(
        tuple(c.key for c in sorted(group, key=lambda c: (c.start, c.key)))
        for group in on_link.values()
    )
    return task_order, comm_order


def _assert_matches(problem, mode, schedule, reference, label):
    tasks = reference.tasks
    comms = reference.comms
    names = tuple(t.name for t in tasks)
    keys = tuple(c.key for c in comms)
    # Arrays first, before anything builds the object view.  Every
    # array is a tuple.
    assert schedule.task_names == names, label
    assert schedule.task_types == tuple(t.task_type for t in tasks), label
    assert schedule.task_pes == tuple(t.pe for t in tasks), label
    assert schedule.task_cores == tuple(t.core_index for t in tasks), label
    assert schedule.task_powers == tuple(t.power for t in tasks), label
    assert schedule.task_starts == tuple(t.start for t in tasks), label
    assert schedule.task_ends == tuple(t.end for t in tasks), label
    assert schedule.task_energies == tuple(t.energy for t in tasks), label
    assert schedule.task_pieces == tuple(t.pieces for t in tasks), label
    assert schedule.task_index == {n: i for i, n in enumerate(names)}
    assert schedule.comm_srcs == tuple(c.src for c in comms), label
    assert schedule.comm_dsts == tuple(c.dst for c in comms), label
    assert schedule.comm_src_tasks == tuple(names.index(c.src) for c in comms)
    assert schedule.comm_dst_tasks == tuple(names.index(c.dst) for c in comms)
    assert schedule.comm_links == tuple(c.link for c in comms), label
    assert schedule.comm_starts == tuple(c.start for c in comms), label
    assert schedule.comm_ends == tuple(c.end for c in comms), label
    assert schedule.comm_energies == tuple(c.energy for c in comms), label
    task_order, comm_order = _resource_order(tasks, comms)
    assert all(schedule.task_order) and all(schedule.comm_order), label
    assert all(
        type(ids) is tuple for ids in schedule.task_order + schedule.comm_order
    ), label
    assert sorted(
        tuple(names[i] for i in ids) for ids in schedule.task_order
    ) == task_order, label
    assert sorted(
        tuple(keys[i] for i in ids) for ids in schedule.comm_order
    ) == comm_order, label

    # Evaluator figures, recomputed from the frozen objects.
    assert schedule.total_dynamic_energy() == sum(
        t.energy for t in tasks
    ) + sum(c.energy for c in comms), label
    assert schedule.active_pes() == tuple(sorted({t.pe for t in tasks}))
    assert schedule.active_links() == tuple(
        sorted({c.link for c in comms if c.link is not None})
    )
    latest = 0.0
    for activity in tasks + comms:
        latest = max(latest, activity.end)
    assert schedule.makespan == latest, label
    violations = {}
    for task in mode.task_graph:
        deadline = mode.effective_deadline(task.name)
        overshoot = reference.task(task.name).end - deadline
        if overshoot > TIME_EPS:
            violations[task.name] = overshoot
    assert schedule.timing_violations(mode) == violations, label
    deadlines = context_for(problem).modes[mode.name].deadlines
    assert schedule.timing_violations(mode, deadlines) == violations

    # The object view equals the frozen objects, field by field.
    assert schedule.tasks == tasks, label
    assert schedule.comms == comms, label


def _check_genome(problem, genome, label):
    """Compare both schedulers on every schedulable mode of a genome."""
    try:
        cores = allocate_cores(problem, genome)
    except Exception:
        return 0
    context = context_for(problem)
    checked = 0
    for mode in problem.omsm.modes:
        mapping = genome.mode_mapping(mode.name)
        try:
            reference = list_scheduler_reference.schedule_mode(
                problem, mode, mapping, cores
            )
        except Exception as error:
            with pytest.raises(type(error)):
                schedule_mode(problem, mode, mapping, cores)
            continue
        for with_context in (False, True):
            schedule = schedule_mode(
                problem,
                mode,
                mapping,
                cores,
                context=context if with_context else None,
            )
            _assert_matches(
                problem,
                mode,
                schedule,
                reference,
                f"{label}/{mode.name}/context={with_context}",
            )
        checked += 1
    return checked


@pytest.mark.parametrize("name", INSTANCES)
def test_random_mapping_corpus_matches_frozen_scheduler(name):
    problem = registry.get(name)
    rng = random.Random(4321)
    checked = 0
    for draw in range(8):
        genome = MappingString.random(problem, rng)
        checked += _check_genome(problem, genome, f"{name}/random{draw}")
    assert checked > 0


@pytest.mark.parametrize("name", INSTANCES)
def test_mutation_chain_corpus_matches_frozen_scheduler(name):
    problem = registry.get(name)
    rng = random.Random(77)
    genome = MappingString.random(problem, rng)
    checked = 0
    for step in range(12):
        genome = genome.mutate(rng, per_gene_rate=0.08)
        checked += _check_genome(problem, genome, f"{name}/step{step}")
    assert checked > 0


def test_micro_problems_match_frozen_scheduler():
    for problem in (
        make_two_mode_problem(period=0.5),
        make_parallel_hw_problem(),
        make_parallel_hw_problem(dvs_hw=False),
    ):
        rng = random.Random(7)
        for draw in range(6):
            genome = MappingString.random(problem, rng)
            _check_genome(problem, genome, f"{problem.name}/{draw}")


@pytest.mark.parametrize("cores", [1, 2, 6])
def test_unbooked_core_timelines_stay_out_of_resource_order(cores):
    # Everything on the hardware component, which offers more cores of
    # every type than the mode books: the scheduler tries (and creates
    # timelines for) cores that end up empty.
    problem = make_parallel_hw_problem()
    mode = problem.omsm.mode("M")
    mapping = {task.name: "HW" for task in mode.task_graph}
    allocation = CoreAllocation(
        counts={"HW": {"M": {"S": 3, "P": cores, "J": 2}}},
        area_used={"HW": 0.0},
        _problem=problem,
    )
    reference = list_scheduler_reference.schedule_mode(
        problem, mode, mapping, allocation
    )
    schedule = schedule_mode(problem, mode, mapping, allocation)
    _assert_matches(problem, mode, schedule, reference, f"cores={cores}")
    assert len(schedule.task_order) == 2 + min(cores, 4)

    context = context_for(problem)
    for shared_rail in (True, False):
        scaled = scale_schedule(
            problem, mode, schedule, shared_rail=shared_rail, context=context
        )
        expected = reference_scale_schedule(
            problem, mode, reference, shared_rail=shared_rail
        )
        assert scaled.tasks == expected.tasks
        assert scaled.comms == expected.comms
    scaled = uniform_scale_schedule(problem, mode, schedule, context=context)
    expected = reference_uniform_scale_schedule(problem, mode, reference)
    assert scaled.tasks == expected.tasks
    assert scaled.comms == expected.comms
