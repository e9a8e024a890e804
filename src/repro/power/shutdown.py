"""Component shut-down analysis (paper Section 2.3, Example 2).

A processing element can be switched off during a mode when no task of
that mode is mapped onto it; a communication link can be switched off
when no message of the mode is mapped onto it.  Shut-down components
contribute no static power to the mode, which is why implementing a
task type *multiple times* (e.g. once in hardware for a busy mode, once
in software for a rare one) can reduce the average power.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.problem import Problem
from repro.scheduling.schedule import ModeSchedule


def active_components(
    problem: Problem, schedule: ModeSchedule
) -> FrozenSet[str]:
    """Names of the components (``K_O``) powered during a mode."""
    return frozenset(schedule.active_pes()) | frozenset(
        schedule.active_links()
    )


def shut_down_components(
    problem: Problem, schedule: ModeSchedule
) -> Tuple[str, ...]:
    """Components that may be switched off during this mode (sorted)."""
    active = active_components(problem, schedule)
    names = list(problem.architecture.pe_names) + list(
        problem.architecture.link_names
    )
    return tuple(name for name in names if name not in active)


def mode_static_power(problem: Problem, schedule: ModeSchedule) -> float:
    """Static power ``p̄_stat`` of one mode, in watts.

    Sums the static power of every active component; shut-down
    components contribute nothing.  Depends only on the mode's mapping
    (its task PEs and message links), so a voltage-scaled schedule and
    its nominal input score alike.
    """
    # The set active_components builds, without sorting or freezing
    # it (an internal message's ``None`` link names no component).
    active = set(schedule.task_pes)
    active.update(schedule.comm_links)
    total = 0.0
    for pe in problem.architecture.pes:
        if pe.name in active:
            total += pe.static_power
    for link in problem.architecture.links:
        if link.name in active:
            total += link.static_power
    return total
