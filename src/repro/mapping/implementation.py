"""Fully evaluated implementation candidates.

An implementation (paper Section 2.2) is the tuple of functions
``(M_τ^O, M_γ^O, S_ε^O, V_τ^O)`` for every mode, together with the
derived quality metrics: probability-weighted average power (Equation 1),
per-mode power breakdown, and the three feasibility dimensions (timing,
area, mode-transition time).

The evaluator scores every mode without keeping its schedule, so an
implementation it returns holds :class:`LazySchedules`: a mode's
schedule is rebuilt, with the kernels that scored it, when it is first
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Sequence, Tuple

from repro.mapping.cores import CoreAllocation
from repro.mapping.encoding import MappingString
from repro.problem import Problem
from repro.scheduling.schedule import ModeSchedule


@dataclass(frozen=True)
class ImplementationMetrics:
    """Quality figures of one implementation candidate.

    All powers are in watts, times in seconds.  ``average_power`` is the
    paper's Equation (1) under the *true* mode execution probabilities,
    regardless of which probabilities guided the optimisation.
    """

    average_power: float
    dynamic_power: Dict[str, float]
    static_power: Dict[str, float]
    timing_violation: Dict[str, Dict[str, float]]
    area_violation: Dict[str, float]
    transition_violation: Dict[Tuple[str, str], float]
    fitness: float

    @property
    def is_timing_feasible(self) -> bool:
        return not self.timing_violation

    @property
    def is_area_feasible(self) -> bool:
        return not self.area_violation

    @property
    def is_transition_feasible(self) -> bool:
        return not self.transition_violation

    @property
    def is_feasible(self) -> bool:
        """True when no constraint of Section 3 is violated."""
        return (
            self.is_timing_feasible
            and self.is_area_feasible
            and self.is_transition_feasible
        )

    def mode_power(self, mode_name: str) -> float:
        """Dynamic + static power of one mode (unweighted)."""
        return self.dynamic_power[mode_name] + self.static_power[mode_name]


class LazySchedules(Mapping[str, ModeSchedule]):
    """Read-only per-mode schedules, each built on its first read.

    ``build(mode_name)`` returns the mode's schedule; every mode is
    built at most once, and the schedule is kept for the life of this
    mapping.
    """

    __slots__ = ("_modes", "_build", "_built")

    def __init__(
        self, modes: Sequence[str], build: Callable[[str], ModeSchedule]
    ) -> None:
        self._modes = modes
        self._build = build
        self._built: Dict[str, ModeSchedule] = {}

    def __getitem__(self, mode_name: str) -> ModeSchedule:
        schedule = self._built.get(mode_name)
        if schedule is None:
            if mode_name not in self._modes:
                raise KeyError(mode_name)
            schedule = self._built[mode_name] = self._build(mode_name)
        return schedule

    def __contains__(self, mode_name: object) -> bool:
        return mode_name in self._modes

    def __iter__(self) -> Iterator[str]:
        return iter(self._modes)

    def __len__(self) -> int:
        return len(self._modes)


@dataclass(frozen=True)
class Implementation:
    """A decoded, scheduled and voltage-scaled mapping candidate.

    ``schedules`` maps every mode to its post-DVS schedule; the
    evaluator passes :class:`LazySchedules`, so the first read of a
    mode costs one schedule and DVS pass.
    """

    problem: Problem
    mapping: MappingString
    cores: CoreAllocation
    schedules: Mapping[str, ModeSchedule]
    metrics: ImplementationMetrics

    def schedule(self, mode_name: str) -> ModeSchedule:
        return self.schedules[mode_name]

    def active_components(self, mode_name: str) -> Tuple[str, ...]:
        """Components powered during a mode (PEs then links, sorted)."""
        schedule = self.schedules[mode_name]
        return schedule.active_pes() + schedule.active_links()

    def shut_down_components(self, mode_name: str) -> Tuple[str, ...]:
        """Components that can be switched off during a mode."""
        active = set(self.active_components(mode_name))
        names = list(self.problem.architecture.pe_names) + list(
            self.problem.architecture.link_names
        )
        return tuple(n for n in names if n not in active)

    def summary(self) -> str:
        """A short human-readable report of the candidate."""
        lines = [
            f"implementation of {self.problem.name!r}:",
            f"  average power: {self.metrics.average_power * 1e3:.4f} mW",
            f"  feasible: {self.metrics.is_feasible}",
        ]
        for mode in self.problem.omsm.modes:
            schedule = self.schedules[mode.name]
            shut = ", ".join(self.shut_down_components(mode.name)) or "none"
            lines.append(
                f"  mode {mode.name} (Ψ={mode.probability:.2f}): "
                f"P_dyn={self.metrics.dynamic_power[mode.name] * 1e3:.4f} mW, "
                f"P_stat={self.metrics.static_power[mode.name] * 1e3:.4f} mW, "
                f"makespan={schedule.makespan * 1e3:.3f} ms, "
                f"off: {shut}"
            )
        return "\n".join(lines)
