"""Average power of an implementation — the paper's Equation (1).

``p̄ = Σ_O (p̄_dyn(O) + p̄_stat(O)) · Ψ_O`` where

* ``p̄_dyn(O)`` is the dynamic energy of one task-graph iteration
  (tasks at their — possibly scaled — voltages, plus communications)
  divided by the mode's hyper-period, and
* ``p̄_stat(O)`` is the static power of the components left powered
  during the mode.

The probability vector is a parameter: the proposed synthesis evaluates
it with the true execution probabilities, the baseline "probability
neglecting" synthesis with a uniform vector — while *reported* results
are always under the true probabilities.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import SpecificationError
from repro.power.shutdown import mode_static_power
from repro.problem import Problem
from repro.scheduling.schedule import ModeSchedule


def dynamic_power(
    task_energies: Sequence[float],
    comm_energies: Sequence[float],
    period: float,
) -> float:
    """Average dynamic power from one iteration's energy arrays.

    The task energies (in schedule order) plus the communication
    energies, over the hyper-period: the kernel of
    :func:`mode_dynamic_power`, which the evaluation pipeline also
    feeds with voltage-scaled energies that no schedule holds.
    """
    return (sum(task_energies) + sum(comm_energies)) / period


def mode_dynamic_power(
    problem: Problem, mode_name: str, schedule: ModeSchedule
) -> float:
    """Average dynamic power of one mode: iteration energy / hyper-period."""
    mode = problem.omsm.mode(mode_name)
    return dynamic_power(
        schedule.task_energies, schedule.comm_energies, mode.period
    )


def power_breakdown(
    problem: Problem, schedules: Mapping[str, ModeSchedule]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-mode (dynamic, static) power dictionaries, in watts."""
    dynamic: Dict[str, float] = {}
    static: Dict[str, float] = {}
    for mode in problem.omsm.modes:
        try:
            schedule = schedules[mode.name]
        except KeyError:
            raise SpecificationError(
                f"no schedule provided for mode {mode.name!r}"
            ) from None
        dynamic[mode.name] = mode_dynamic_power(
            problem, mode.name, schedule
        )
        static[mode.name] = mode_static_power(problem, schedule)
    return dynamic, static


def average_power(
    problem: Problem,
    schedules: Mapping[str, ModeSchedule],
    probabilities: Optional[Mapping[str, float]] = None,
) -> float:
    """Equation (1): probability-weighted average power, in watts.

    Parameters
    ----------
    problem:
        The co-synthesis instance.
    schedules:
        One (possibly voltage-scaled) schedule per mode.
    probabilities:
        Mode-probability vector ``Ψ``.  Defaults to the true execution
        probabilities of the OMSM; pass
        :meth:`~repro.specification.omsm.OMSM.uniform_probability_vector`
        to evaluate the way a probability-neglecting synthesis does.
    """
    if probabilities is None:
        probabilities = problem.omsm.probability_vector()
    dynamic, static = power_breakdown(problem, schedules)
    return weighted_power(problem, dynamic, static, probabilities)


def weighted_power(
    problem: Problem,
    dynamic: Mapping[str, float],
    static: Mapping[str, float],
    probabilities: Optional[Mapping[str, float]] = None,
) -> float:
    """Equation (1) from an existing per-mode power breakdown.

    The summation kernel of :func:`average_power`, shared with the
    incremental evaluation pipeline: given the per-mode dynamic/static
    powers (however they were obtained — freshly computed or served
    from the mode-result cache), the weighted total is accumulated in
    OMSM mode order, so the float result is bit-identical to the
    monolithic path.
    """
    if probabilities is None:
        probabilities = problem.omsm.probability_vector()
    total = 0.0
    for mode in problem.omsm.modes:
        try:
            weight = probabilities[mode.name]
        except KeyError:
            raise SpecificationError(
                f"probability vector misses mode {mode.name!r}"
            ) from None
        total += (dynamic[mode.name] + static[mode.name]) * weight
    return total
