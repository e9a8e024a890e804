"""The seed's monolithic candidate evaluator (bit-identity oracle).

One recompute-per-candidate pass over the whole mapping: no
:class:`~repro.engine.decode_cache.DecodeContext`, no per-mode result
cache, the seed mobility analysis and core allocator
(:mod:`tests.oracles.cores_reference`), the seed PV-DVS implementation
(:mod:`tests.oracles.pv_dvs_reference`) and no profiler phases.  The
staged pipeline :func:`repro.eval.pipeline.evaluate_mapping_incremental`
must reproduce its results bit for bit; :func:`seed_path` swaps it in
for the pipeline so whole GA runs can be compared with the seed path.

Do not optimise this module; its value is being the unchanged
reference.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, Optional

import repro.eval.pipeline
from repro.errors import SchedulingError
from repro.mapping.encoding import MappingString
from repro.mapping.implementation import Implementation, ImplementationMetrics
from repro.power.energy_model import average_power, power_breakdown
from repro.problem import Problem
from repro.scheduling.schedule import ModeSchedule
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.fitness import FitnessWeights, mapping_fitness

from tests.oracles.cores_reference import allocate_cores, compute_mobilities
from tests.oracles.list_scheduler_reference import schedule_mode
from tests.oracles.pv_dvs_reference import (
    reference_scale_schedule,
    reference_uniform_scale_schedule,
)


def evaluate_mapping(
    problem: Problem,
    mapping: MappingString,
    config: SynthesisConfig,
    context: Any = None,
    cache: Any = None,
) -> Optional[Implementation]:
    """Decode, schedule, scale and score one candidate, seed-style.

    Same signature as the pipeline it stands in for; ``context`` and
    ``cache`` are accepted and ignored.
    """
    technology = problem.technology

    mode_mappings: Dict[str, Dict[str, str]] = {}
    mobilities = {}
    for mode in problem.omsm.modes:
        mode_mappings[mode.name] = mapping.mode_mapping(mode.name)
        mobilities[mode.name] = compute_mobilities(
            mode,
            lambda task, _mode=mode: technology.implementation(
                _mode.task_graph.task(task).task_type,
                mapping.pe_of(_mode.name, task),
            ).exec_time,
        )

    cores = allocate_cores(
        problem, mapping, mobilities, mode_mappings=mode_mappings
    )
    area_violations = cores.area_violations()
    transition_violations = cores.transition_violations()

    schedules: Dict[str, ModeSchedule] = {}
    timing_violations: Dict[str, Dict[str, float]] = {}
    for mode in problem.omsm.modes:
        try:
            schedule = schedule_mode(
                problem,
                mode,
                mode_mappings[mode.name],
                cores,
                mobilities[mode.name],
            )
        except SchedulingError:
            return None
        if config.dvs is DvsMethod.GRADIENT:
            schedule = reference_scale_schedule(
                problem, mode, schedule, shared_rail=config.dvs_shared_rail
            )
        elif config.dvs is DvsMethod.UNIFORM:
            schedule = reference_uniform_scale_schedule(
                problem, mode, schedule
            )
        schedules[mode.name] = schedule
        violations = schedule.timing_violations(mode)
        if violations:
            timing_violations[mode.name] = violations

    dynamic, static = power_breakdown(problem, schedules)
    true_power = average_power(problem, schedules)
    if config.use_probabilities:
        optimised_power = true_power
    else:
        optimised_power = average_power(
            problem, schedules, problem.omsm.uniform_probability_vector()
        )
    weights = FitnessWeights(
        area=config.area_weight,
        transition=config.transition_weight,
        timing=config.timing_weight,
    )
    fitness = mapping_fitness(
        problem,
        optimised_power,
        timing_violations,
        area_violations,
        transition_violations,
        weights,
    )

    metrics = ImplementationMetrics(
        average_power=true_power,
        dynamic_power=dynamic,
        static_power=static,
        timing_violation=timing_violations,
        area_violation=area_violations,
        transition_violation=transition_violations,
        fitness=fitness,
    )
    return Implementation(
        problem=problem,
        mapping=mapping,
        cores=cores,
        schedules=schedules,
        metrics=metrics,
    )


@contextlib.contextmanager
def seed_path() -> Iterator[None]:
    """Route every candidate evaluation through the seed evaluator.

    Swaps :func:`evaluate_mapping` in at
    ``repro.eval.pipeline.evaluate_mapping_incremental`` — the name
    :func:`repro.synthesis.evaluator.evaluate_mapping` looks up on each
    call — and restores the original on exit.  Pool workers forked
    inside the block inherit the swap.
    """
    original = repro.eval.pipeline.evaluate_mapping_incremental
    repro.eval.pipeline.evaluate_mapping_incremental = evaluate_mapping
    try:
        yield
    finally:
        repro.eval.pipeline.evaluate_mapping_incremental = original
