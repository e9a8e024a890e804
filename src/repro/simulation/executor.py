"""Replaying an implementation over a mode trace.

For every visit the executor accounts:

* one iteration energy (tasks at their scaled voltages plus bus
  transfers) per *started* task-graph period — periods are started
  back-to-back for the whole dwell, the common operating model for
  periodic firm-deadline systems;
* static power of the components left powered during the mode, for the
  full dwell;
* at each mode change, the FPGA reconfiguration time (during which the
  destination mode cannot start iterating) and, optionally, a
  configurable reconfiguration energy per cell.

The resulting average power converges to the analytical Equation (1)
as the horizon grows, up to the (real) mode-change overheads that the
static estimate deliberately ignores — making the simulator both a
validation harness for the power model and a tool to quantify when
transition overheads start to matter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.architecture.processing_element import PEKind
from repro.errors import SpecificationError
from repro.mapping.implementation import Implementation
from repro.power.shutdown import mode_static_power
from repro.simulation.markov import ModeProcess
from repro.simulation.trace import ModeVisit, generate_trace


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated outcome of one trace-driven simulation."""

    horizon: float
    total_energy: float
    dynamic_energy: float
    static_energy: float
    reconfiguration_energy: float
    reconfiguration_time: float
    iterations: Dict[str, int]
    mode_time: Dict[str, float]
    transitions: int
    analytical_power: float

    @property
    def average_power(self) -> float:
        """Simulated average power over the horizon, in watts."""
        return self.total_energy / self.horizon

    @property
    def relative_error(self) -> float:
        """``(simulated − analytical) / analytical`` average power."""
        if self.analytical_power == 0:
            return 0.0
        return (
            self.average_power - self.analytical_power
        ) / self.analytical_power

    def mode_fraction(self, mode_name: str) -> float:
        return self.mode_time.get(mode_name, 0.0) / self.horizon

    def summary(self) -> str:
        lines = [
            f"simulated {self.horizon:.3f} s, "
            f"{self.transitions} mode changes",
            f"  simulated power:  {self.average_power * 1e3:.4f} mW",
            f"  Equation (1):     {self.analytical_power * 1e3:.4f} mW "
            f"(error {self.relative_error * 100:+.2f} %)",
            f"  dynamic energy:   {self.dynamic_energy * 1e3:.4f} mJ",
            f"  static energy:    {self.static_energy * 1e3:.4f} mJ",
            f"  reconfiguration:  {self.reconfiguration_time * 1e3:.2f}"
            f" ms, {self.reconfiguration_energy * 1e3:.4f} mJ",
        ]
        return "\n".join(lines)


def simulate(
    implementation: Implementation,
    trace: Optional[Sequence[ModeVisit]] = None,
    horizon: float = 10.0,
    seed: int = 0,
    process: Optional[ModeProcess] = None,
    reconfig_energy_per_cell: float = 0.0,
) -> SimulationReport:
    """Replay an implementation over a (possibly generated) mode trace.

    Parameters
    ----------
    implementation:
        A fully evaluated implementation (mapping + schedules).
    trace:
        Explicit mode visits, each starting where the previous one
        ended (:class:`SpecificationError` otherwise).  When ``None``,
        a trace is generated over ``horizon`` seconds from ``process``
        (or a default :class:`ModeProcess`) with the given ``seed``.
    horizon:
        Trace length in seconds (ignored when ``trace`` is given).
    reconfig_energy_per_cell:
        Energy in joules charged per reconfigured FPGA cell at mode
        changes (0 = time-only reconfiguration).
    """
    problem = implementation.problem
    if trace is None:
        if process is None:
            process = ModeProcess(problem.omsm)
        trace = generate_trace(
            process, horizon, random.Random(seed)
        )
    if not trace:
        raise SpecificationError("cannot simulate an empty trace")
    # The horizon spans the whole trace, so a gap or an overlap between
    # visits would mis-state the average power.
    for index, visit in enumerate(trace):
        if visit.end < visit.start:
            raise SpecificationError(
                f"trace visit {index} ends at {visit.end} before it "
                f"starts at {visit.start}"
            )
        if index and visit.start != trace[index - 1].end:
            raise SpecificationError(
                f"trace visit {index} starts at {visit.start}, not where "
                f"the previous visit ended ({trace[index - 1].end})"
            )
    actual_horizon = trace[-1].end - trace[0].start

    iteration_energy: Dict[str, float] = {}
    static_power: Dict[str, float] = {}
    for mode in problem.omsm.modes:
        schedule = implementation.schedules[mode.name]
        iteration_energy[mode.name] = schedule.total_dynamic_energy()
        static_power[mode.name] = mode_static_power(problem, schedule)

    dynamic_energy = 0.0
    static_energy = 0.0
    reconfiguration_energy = 0.0
    reconfiguration_time = 0.0
    iterations: Dict[str, int] = {
        mode.name: 0 for mode in problem.omsm.modes
    }
    mode_time: Dict[str, float] = {
        mode.name: 0.0 for mode in problem.omsm.modes
    }

    previous: Optional[str] = None
    for visit in trace:
        if visit.mode not in iterations:
            raise SpecificationError(
                f"trace visits unknown mode {visit.mode!r}"
            )
        usable = visit.duration
        if previous is not None and previous != visit.mode:
            overhead = implementation.cores.transition_time(
                previous, visit.mode
            )
            overhead = min(overhead, usable)
            reconfiguration_time += overhead
            usable -= overhead
            if reconfig_energy_per_cell > 0:
                for pe in problem.architecture.hardware_pes():
                    if pe.kind is PEKind.FPGA:
                        reconfiguration_energy += (
                            implementation.cores.loaded_cells(
                                pe.name, previous, visit.mode
                            )
                            * reconfig_energy_per_cell
                        )
        period = problem.omsm.mode(visit.mode).period
        started = int(math.ceil(usable / period - 1e-12)) if usable > 0 else 0
        iterations[visit.mode] += started
        dynamic_energy += started * iteration_energy[visit.mode]
        static_energy += visit.duration * static_power[visit.mode]
        mode_time[visit.mode] += visit.duration
        previous = visit.mode

    from repro.power.energy_model import average_power

    analytical = average_power(problem, implementation.schedules)
    total = dynamic_energy + static_energy + reconfiguration_energy
    return SimulationReport(
        horizon=actual_horizon,
        total_energy=total,
        dynamic_energy=dynamic_energy,
        static_energy=static_energy,
        reconfiguration_energy=reconfiguration_energy,
        reconfiguration_time=reconfiguration_time,
        iterations=iterations,
        mode_time=mode_time,
        transitions=sum(
            1
            for left, right in zip(trace, trace[1:])
            if left.mode != right.mode
        ),
        analytical_power=analytical,
    )

