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
from typing import Callable, Dict, Mapping, Sequence

from repro.errors import SchedulingError
from repro.specification.mode import Mode


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
    order: Sequence[str],
    predecessors: Mapping[str, Sequence[str]],
    successors: Mapping[str, Sequence[str]],
    deadlines: Mapping[str, float],
    durations: Mapping[str, float],
) -> Dict[str, MobilityInfo]:
    """The one ASAP/ALAP pass, over plain adjacency and timing tables.

    ``order`` is a topological order of the graph; ``deadlines`` holds
    each task's effective deadline (the earlier of the mode period and
    its own deadline).  Both :func:`compute_mobilities` and
    :meth:`repro.engine.decode_cache.DecodeContext.compute_mobilities`
    run on it.
    """
    asap: Dict[str, float] = {}
    for name in order:
        arrival = 0.0
        for pred in predecessors[name]:
            arrival = max(arrival, asap[pred] + durations[pred])
        asap[name] = arrival

    alap: Dict[str, float] = {}
    for name in reversed(order):
        latest_finish = deadlines[name]
        for succ in successors[name]:
            latest_finish = min(latest_finish, alap[succ])
        alap[name] = latest_finish - durations[name]

    return {
        name: MobilityInfo(asap=asap[name], alap=alap[name]) for name in order
    }


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
        Task name → :class:`MobilityInfo`.  ALAP times honour both the
        mode period and individual task deadlines.  When the graph's
        critical path exceeds a deadline, mobilities become negative —
        callers treat that as a timing-infeasibility signal rather than
        an error.
    """
    graph = mode.task_graph
    order = graph.topological_order()
    durations = {}
    for name in order:
        duration = exec_time(name)
        if duration < 0:
            raise SchedulingError(
                f"mode {mode.name!r}: negative execution time for "
                f"task {name!r}"
            )
        durations[name] = duration
    return asap_alap(
        order,
        {name: graph.predecessors(name) for name in order},
        {name: graph.successors(name) for name in order},
        {name: mode.effective_deadline(name) for name in order},
        durations,
    )


def critical_path_length(
    mode: Mode, exec_time: Callable[[str], float]
) -> float:
    """Length of the longest dataflow path (ignoring communication)."""
    graph = mode.task_graph
    finish: Dict[str, float] = {}
    for name in graph.topological_order():
        arrival = 0.0
        for pred in graph.predecessors(name):
            arrival = max(arrival, finish[pred])
        finish[name] = arrival + exec_time(name)
    return max(finish.values(), default=0.0)
