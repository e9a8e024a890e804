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

from typing import Optional, Tuple

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
) -> ModePrep:
    """Mobility stage: ALAP starts, mobilities and core demand.

    Pure function of the mode's gene slice (prep cache segment), which
    is also the mode's mapping.  The demand part hoists this mode's
    share of core allocation out of the (cross-mode) combine stage — it
    too depends only on this mode's genes.
    """
    data = context.modes[mode.name]
    alap, mobility = gene_mobility(data, genes)
    return ModePrep(
        genes, alap, mobility, mode_demand(problem, data, genes, mobility)
    )


def run_mode(
    problem: Problem,
    config: SynthesisConfig,
    context: DecodeContext,
    mode: Mode,
    prep: ModePrep,
    cores: CoreAllocation,
) -> ModeOutcome:
    """Per-mode schedule stage: list scheduling, DVS, timing, power.

    Covers the schedule and DVS phases and the timing violations of one
    mode, plus the mode's share of the power breakdown (dynamic and
    static power are per-mode quantities).
    A :class:`~repro.errors.SchedulingError` yields an infeasible
    outcome — cacheable like any other result.
    """
    schedule: Optional[ModeSchedule]
    with PROFILER.phase("schedule", mode=mode.name):
        try:
            schedule = schedule_mode(
                problem, mode, prep.genes, cores, prep.alap, context=context
            )
        except SchedulingError:
            schedule = None
    if schedule is None:
        return ModeOutcome(None, {}, 0.0, 0.0)
    if config.dvs is not DvsMethod.NONE:
        with PROFILER.phase("dvs", mode=mode.name):
            if config.dvs is DvsMethod.GRADIENT:
                schedule = scale_schedule(
                    problem,
                    mode,
                    schedule,
                    shared_rail=config.dvs_shared_rail,
                    context=context,
                )
            else:
                schedule = uniform_scale_schedule(
                    problem, mode, schedule, context=context
                )
    violations = schedule.timing_violations(
        mode, deadlines=context.modes[mode.name].deadlines
    )
    dynamic = mode_dynamic_power(problem, mode.name, schedule)
    static = mode_static_power(problem, schedule)
    return ModeOutcome(schedule, violations, dynamic, static)
