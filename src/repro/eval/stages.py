"""Stage functions of the staged evaluation pipeline.

Each function is one explicit stage of the decode → mobility → core
allocation → per-mode {comm mapping, list schedule, DVS} → power →
fitness pipeline (:mod:`repro.eval.pipeline` orchestrates them and owns
the caching).  Every stage works on a resolved
:class:`~repro.engine.decode_cache.DecodeContext` and replicates the
corresponding slice of a monolithic recompute-per-candidate evaluation
— same float operations, same iteration order — so pipeline results
are bit-identical to the frozen seed evaluator under ``tests/oracles``.
Core demand and fitting are the kernels
:func:`repro.mapping.cores.allocate_cores` runs too
(:func:`~repro.mapping.cores.mode_demand`,
:func:`~repro.mapping.cores.combine_cores`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.dvs.pv_dvs import scale_schedule, uniform_scale_schedule
from repro.engine.decode_cache import DecodeContext
from repro.engine.profile import PROFILER
from repro.errors import SchedulingError
from repro.eval.cache import ModeOutcome, ModePrep
from repro.mapping.cores import CoreAllocation, mode_demand
from repro.power.energy_model import mode_dynamic_power
from repro.power.shutdown import mode_static_power
from repro.problem import Problem
from repro.scheduling.list_scheduler import schedule_mode
from repro.scheduling.mobility import gene_mobility
from repro.scheduling.schedule import ModeSchedule
from repro.specification.mode import Mode
from repro.synthesis.config import DvsMethod, SynthesisConfig


def prepare_mode(
    problem: Problem,
    context: DecodeContext,
    genes: Tuple[str, ...],
    mode: Mode,
) -> Tuple[ModePrep, Tuple[float, ...]]:
    """Mobility stage: core demand, plus the ALAP starts.

    Pure function of the mode's gene slice (prep cache segment), which
    is also the mode's mapping.  The demand part hoists this mode's
    share of core allocation out of the (cross-mode) combine stage — it
    too depends only on this mode's genes.  The ALAP starts (the list
    priority) are returned beside the prep, not in it: only a schedule
    built in the same evaluation reads them.
    """
    data = context.modes[mode.name]
    alap, mobility = gene_mobility(data, genes)
    return ModePrep(genes, mode_demand(problem, data, genes, mobility)), alap


def final_schedule(
    problem: Problem,
    config: SynthesisConfig,
    context: DecodeContext,
    mode: Mode,
    genes: Sequence[str],
    cores: CoreAllocation,
    alap: Optional[Sequence[float]] = None,
) -> ModeSchedule:
    """One mode's list schedule, voltage-scaled by the configured DVS.

    The kernels :func:`run_mode` scores with, and the ones an
    :class:`~repro.mapping.implementation.Implementation` rebuilds a
    read schedule with.  ``alap`` is recomputed from ``genes`` when
    omitted.  Raises :class:`~repro.errors.SchedulingError` when list
    scheduling fails.
    """
    with PROFILER.phase("schedule", mode=mode.name):
        schedule = schedule_mode(
            problem, mode, genes, cores, alap, context=context
        )
    if config.dvs is DvsMethod.NONE:
        return schedule
    with PROFILER.phase("dvs", mode=mode.name):
        if config.dvs is DvsMethod.GRADIENT:
            return scale_schedule(
                problem,
                mode,
                schedule,
                shared_rail=config.dvs_shared_rail,
                context=context,
            )
        return uniform_scale_schedule(problem, mode, schedule, context=context)


def run_mode(
    problem: Problem,
    config: SynthesisConfig,
    context: DecodeContext,
    mode: Mode,
    prep: ModePrep,
    cores: CoreAllocation,
    alap: Optional[Tuple[float, ...]] = None,
) -> ModeOutcome:
    """Per-mode schedule stage: list scheduling, DVS, timing, power.

    Covers the schedule and DVS phases and the timing violations of one
    mode, plus the mode's share of the power breakdown (dynamic and
    static power are per-mode quantities).  Only those scores are
    kept; the schedule is dropped.  ``alap`` is the prep stage's ALAP
    row when the prep missed in the same evaluation.
    A :class:`~repro.errors.SchedulingError` yields an infeasible
    outcome — cacheable like any other result.
    """
    try:
        schedule = final_schedule(
            problem, config, context, mode, prep.genes, cores, alap
        )
    except SchedulingError:
        return ModeOutcome(False, {}, 0.0, 0.0)
    violations = schedule.timing_violations(
        mode, deadlines=context.modes[mode.name].deadlines
    )
    dynamic = mode_dynamic_power(problem, mode.name, schedule)
    static = mode_static_power(problem, schedule)
    return ModeOutcome(True, violations, dynamic, static)
