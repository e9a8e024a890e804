"""ASAP/ALAP analysis and task mobilities.

Mobility — the difference between a task's as-late-as-possible and
as-soon-as-possible start times — measures scheduling freedom.  The
outer synthesis loop uses it twice (paper Fig. 4, lines 4–5): tasks with
*low* mobility sit on the critical path, so parallel low-mobility tasks
of the same type are the ones for which allocating an extra hardware
core pays off, and the list scheduler prioritises low-mobility (urgent)
tasks.

The analysis here deliberately ignores communication delays and resource
contention: it is a lower-bound dataflow analysis over the task graph
with the execution times implied by the current mapping, exactly what a
mapping-level heuristic needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from repro.errors import SchedulingError
from repro.specification.mode import Mode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.decode_cache import ModeDecodeData


@dataclass(frozen=True)
class MobilityInfo:
    """ASAP/ALAP start times and mobility for one task."""

    asap: float
    alap: float

    @property
    def mobility(self) -> float:
        """Scheduling freedom ``ALAP − ASAP`` (0 on the critical path)."""
        return self.alap - self.asap


def asap_alap(
    topo: Sequence[int],
    preds: Sequence[Sequence[int]],
    succs: Sequence[Sequence[int]],
    deadlines: Sequence[float],
    durations: Sequence[float],
) -> Tuple[List[float], List[float]]:
    """The one ASAP/ALAP pass, over tables indexed by task position.

    ``topo`` is a topological order of the positions; ``deadlines``
    holds each task's effective deadline (the earlier of the mode period
    and its own deadline).  Returns the ASAP and ALAP start times.
    """
    asap = [0.0] * len(durations)
    finish = [0.0] * len(durations)
    for task in topo:
        arrival = 0.0
        for pred in preds[task]:
            if finish[pred] > arrival:
                arrival = finish[pred]
        asap[task] = arrival
        finish[task] = arrival + durations[task]

    alap = [0.0] * len(durations)
    for task in reversed(topo):
        latest_finish = deadlines[task]
        for succ in succs[task]:
            if alap[succ] < latest_finish:
                latest_finish = alap[succ]
        alap[task] = latest_finish - durations[task]
    return asap, alap


def gene_mobility(
    mode_data: "ModeDecodeData", genes: Sequence[str]
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """ALAP starts and mobilities of a mode's gene slice, by position."""
    exec_times = mode_data.exec_times
    asap, alap = asap_alap(
        mode_data.topo,
        mode_data.preds,
        mode_data.succs,
        mode_data.deadline_row,
        [exec_times[task][pe] for task, pe in enumerate(genes)],
    )
    return tuple(alap), tuple([late - early for late, early in zip(alap, asap)])


def compute_mobilities(
    mode: Mode,
    exec_time: Callable[[str], float],
) -> Dict[str, MobilityInfo]:
    """ASAP/ALAP schedule of one mode's task graph.

    Parameters
    ----------
    mode:
        The operational mode to analyse.
    exec_time:
        Maps a task name to its execution time under the current
        mapping (nominal voltage).

    Returns
    -------
    dict
        Task name → :class:`MobilityInfo`, in topological order.  ALAP
        times honour both the mode period and individual task
        deadlines.  When the graph's critical path exceeds a deadline,
        mobilities become negative — callers treat that as a
        timing-infeasibility signal rather than an error.
    """
    graph = mode.task_graph
    names = graph.task_names
    position = {name: i for i, name in enumerate(names)}
    order = graph.topological_order()
    durations = [0.0] * len(names)
    for name in order:
        duration = exec_time(name)
        if duration < 0:
            raise SchedulingError(
                f"mode {mode.name!r}: negative execution time for "
                f"task {name!r}"
            )
        durations[position[name]] = duration
    asap, alap = asap_alap(
        [position[name] for name in order],
        [[position[p] for p in graph.predecessors(name)] for name in names],
        [[position[s] for s in graph.successors(name)] for name in names],
        [mode.effective_deadline(name) for name in names],
        durations,
    )
    return {
        name: MobilityInfo(asap=asap[position[name]], alap=alap[position[name]])
        for name in order
    }


def critical_path_length(
    mode: Mode, exec_time: Callable[[str], float]
) -> float:
    """Length of the longest dataflow path (ignoring communication)."""
    return max(
        (
            info.asap + exec_time(name)
            for name, info in compute_mobilities(mode, exec_time).items()
        ),
        default=0.0,
    )
