"""The incremental per-mode evaluation pipeline.

:func:`evaluate_mapping_incremental` is the one candidate evaluator
(:func:`repro.synthesis.evaluator.evaluate_mapping` forwards to it).
It runs each candidate through explicit stages —

    decode → mobility → core allocation →
    per-mode {comm mapping, list schedule, DVS} → power → fitness

— and serves per-mode stage results of *clean* modes from a bounded
:class:`~repro.eval.cache.ModeResultCache`.  After a single-mode
mutation, only the dirty mode pays for mobility, scheduling and DVS;
everything else is a cache hit.  Hits are counted per mode and stage
by the cache's ``eval_mode_cache_hits_total`` counters, not timed: a
hit's time stays inside the evaluation (per-mode profiler buckets keep
summing exactly to the aggregates because skipped stages simply record
nothing).

The cache is consulted by *key*: a mode's prep is keyed on its gene
slice and a config fingerprint, its schedule additionally on the core
counts its scheduler reads (see :mod:`repro.eval.cache`), so the
pipeline needs no record of which modes an operator changed.  The
cache keeps each mode's scores, not its schedule: a sched miss scores
the mode from arrays (:func:`~repro.eval.stages.run_mode`) and the
returned :class:`~repro.mapping.implementation.Implementation` builds a
mode's schedule only when it is first read
(:func:`~repro.eval.stages.final_schedule`).

Results are pinned bit-for-bit to the frozen seed evaluator under
``tests/oracles`` (a single monolithic recompute-per-candidate pass).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.engine.decode_cache import DecodeContext, context_for
from repro.engine.profile import PROFILER
from repro.eval.cache import (
    ModePrep,
    ModeResultCache,
    config_fingerprint,
    mode_cache_for,
)
from repro.eval.stages import final_schedule, prepare_mode, run_mode
from repro.mapping.cores import CoreAllocation, combine_cores
from repro.mapping.encoding import MappingString, mode_bounds
from repro.mapping.implementation import (
    Implementation,
    ImplementationMetrics,
    LazySchedules,
)
from repro.power.energy_model import weighted_power
from repro.problem import Problem
from repro.scheduling.schedule import ModeSchedule
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.fitness import FitnessWeights, mapping_fitness


def evaluate_mapping_incremental(
    problem: Problem,
    mapping: MappingString,
    config: SynthesisConfig,
    context: Optional[DecodeContext] = None,
    cache: Optional[ModeResultCache] = None,
) -> Optional[Implementation]:
    """Decode, schedule, scale and score one candidate through the stages.

    Returns ``None`` for communication- or scheduling-infeasible
    mappings.  ``context`` defaults to the problem's memoised
    :func:`~repro.engine.decode_cache.context_for` tables and ``cache``
    to its memoised :func:`~repro.eval.cache.mode_cache_for` instance,
    so the GA loop, the local-search polish and the pool serial
    fallback share one of each.
    """
    if context is None:
        context = context_for(problem)
    if cache is None:
        cache = mode_cache_for(problem, config)
    fingerprint = config_fingerprint(config)

    # Stage 1+2 (decode, mobility) and the per-mode share of stage 3
    # (core demand), served from the prep segment when the mode's gene
    # slice was seen before.
    genome = mapping.genes
    modes = problem.omsm.modes
    preps: List[ModePrep] = []
    # ALAP rows of the preps that missed here, for their sched misses.
    alaps: Dict[str, Tuple[float, ...]] = {}
    for mode, (_, start, end) in zip(modes, mode_bounds(problem)):
        genes = genome[start:end]
        prep_key = (mode.name, genes, fingerprint)
        prep = cache.get_prep(prep_key)
        if prep is None:
            with PROFILER.phase("mobility", mode=mode.name):
                prep, alaps[mode.name] = prepare_mode(
                    problem, context, genes, mode
                )
            cache.put_prep(prep_key, prep)
        preps.append(prep)

    # Stage 3 (core allocation): the only cross-mode coupling; always
    # recombined from the (cached) per-mode demands.
    with PROFILER.phase("cores"):
        cores = combine_cores(
            problem,
            {mode.name: prep.demand for mode, prep in zip(modes, preps)},
        )
        area_violations = cores.area_violations()
        transition_violations = cores.transition_violations()

    # Stage 4 (per-mode schedule + DVS + timing + per-mode power),
    # served from the sched segment when neither the mode's genes nor
    # the core counts its scheduler reads (the prep's read set) have
    # changed.  Only the scores are kept; a miss after a prep hit
    # recomputes the ALAP row.
    timing_violations: Dict[str, Dict[str, float]] = {}
    dynamic: Dict[str, float] = {}
    static: Dict[str, float] = {}
    counts = cores.counts
    for mode, prep in zip(modes, preps):
        signature = tuple(
            [
                (pe, tuple([(t, counts[pe][mode.name].get(t, 0)) for t in types]))
                for pe, types in prep.read_set
            ]
        )
        sched_key = (mode.name, prep.genes, signature, fingerprint)
        outcome = cache.get_sched(sched_key)
        if outcome is None:
            outcome = run_mode(
                problem, config, context, mode, prep, cores, alaps.get(mode.name)
            )
            cache.put_sched(sched_key, outcome)
        if not outcome.feasible:
            # Scheduling-infeasible — the infeasibility itself came
            # from / went to the cache like any other outcome.
            return None
        if outcome.timing:
            timing_violations[mode.name] = outcome.timing
        dynamic[mode.name] = outcome.dynamic
        static[mode.name] = outcome.static

    # Stage 5+6 (power, penalty fitness): probability weighting happens
    # only here, which is what makes cached values Ψ-independent.
    with PROFILER.phase("power"):
        true_power = weighted_power(problem, dynamic, static)
        if config.use_probabilities:
            optimised_power = true_power
        else:
            optimised_power = weighted_power(
                problem,
                dynamic,
                static,
                problem.omsm.uniform_probability_vector(),
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
        schedules=LazySchedules(
            problem.omsm.mode_names,
            partial(_rebuild_schedule, problem, config, context, mapping, cores),
        ),
        metrics=metrics,
    )


def _rebuild_schedule(
    problem: Problem,
    config: SynthesisConfig,
    context: DecodeContext,
    mapping: MappingString,
    cores: CoreAllocation,
    mode_name: str,
) -> ModeSchedule:
    """A scored mode's post-DVS schedule, built when first read.

    Runs the kernels :func:`run_mode` scored the mode with, on the same
    gene slice and core counts, so the schedule's powers and timing
    violations are the cached scores.
    """
    for mode, (_, start, end) in zip(problem.omsm.modes, mode_bounds(problem)):
        if mode.name == mode_name:
            return final_schedule(
                problem, config, context, mode, mapping.genes[start:end], cores
            )
    raise KeyError(mode_name)
