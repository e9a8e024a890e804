"""The seed's object-building list scheduler (bit-identity oracle).

A frozen copy of :func:`repro.scheduling.list_scheduler.schedule_mode`
as it stood before the scheduler switched to struct-of-arrays
schedules: it builds one :class:`~repro.scheduling.schedule.ScheduledTask`
per task and one :class:`~repro.scheduling.schedule.ScheduledComm` per
message, books resources on its own copy of ``ResourceTimeline``, and
hands the objects to the public ``ModeSchedule`` constructor.  It keeps
its context-free branch, so it also pins the decode-context tables.
:mod:`tests.oracles.seed_evaluator` schedules through it, and the
scheduling tests compare the array scheduler with it field by field.

Do not optimise this module; its value is being the unchanged
reference.
"""

from __future__ import annotations

import bisect
import heapq
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.errors import SchedulingError
from repro.problem import Problem
from repro.scheduling.mobility import MobilityInfo
from repro.scheduling.schedule import (
    TIME_EPS,
    ModeSchedule,
    ScheduledComm,
    ScheduledTask,
)
from repro.specification.mode import Mode

from tests.oracles.cores_reference import compute_mobilities

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.decode_cache import DecodeContext
    from repro.mapping.cores import CoreAllocation


class ResourceTimeline:
    """Booked intervals of one serial resource, with gap insertion.

    Bookings never overlap; :meth:`earliest_slot` returns the earliest
    start time ``>= ready`` at which an interval of the given duration
    fits, considering gaps between existing bookings.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._starts: List[float] = []
        self._ends: List[float] = []

    def __len__(self) -> int:
        return len(self._starts)

    @property
    def intervals(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(zip(self._starts, self._ends))

    def earliest_slot(self, ready: float, duration: float) -> float:
        """Earliest feasible start ``>= ready`` for ``duration`` seconds."""
        if duration < 0:
            raise SchedulingError(
                f"resource {self.name!r}: negative duration {duration}"
            )
        candidate = ready
        # Find the first booking that could interfere with `candidate`.
        index = bisect.bisect_left(self._ends, candidate + TIME_EPS)
        while index < len(self._starts):
            gap_end = self._starts[index]
            if candidate + duration <= gap_end + TIME_EPS:
                return candidate
            candidate = max(candidate, self._ends[index])
            index += 1
        return candidate

    def book(self, start: float, duration: float) -> None:
        """Reserve ``[start, start+duration)``; must not overlap."""
        end = start + duration
        index = bisect.bisect_left(self._starts, start)
        if index > 0 and self._ends[index - 1] > start + TIME_EPS:
            raise SchedulingError(
                f"resource {self.name!r}: booking [{start}, {end}) overlaps "
                f"existing interval"
            )
        if index < len(self._starts) and self._starts[index] < end - TIME_EPS:
            raise SchedulingError(
                f"resource {self.name!r}: booking [{start}, {end}) overlaps "
                f"existing interval"
            )
        self._starts.insert(index, start)
        self._ends.insert(index, end)

    def next_free(self) -> float:
        """End of the last booking (0 if the resource is idle)."""
        return self._ends[-1] if self._ends else 0.0


def schedule_mode(
    problem: Problem,
    mode: Mode,
    task_mapping: Mapping[str, str],
    cores: "CoreAllocation",
    mobilities: Optional[Mapping[str, MobilityInfo]] = None,
    context: Optional["DecodeContext"] = None,
) -> ModeSchedule:
    """Construct the static schedule of one mode under a task mapping.

    Parameters
    ----------
    problem:
        The co-synthesis instance (architecture + technology).
    mode:
        The operational mode to schedule.
    task_mapping:
        ``{task name: PE name}`` for every task of the mode.
    cores:
        Core allocation; bounds how many same-type hardware tasks can
        run in parallel on each component.
    mobilities:
        Optional precomputed mobility table for priority computation.
    context:
        Optional decode context with precomputed implementation tables,
        adjacency and feasible-link tables; the produced schedule is
        identical with and without it.

    Raises
    ------
    SchedulingError
        If a message must travel between two PEs that share no link
        (communication-infeasible mapping), or if the mapping misses a
        task.
    """
    graph = mode.task_graph
    technology = problem.technology
    architecture = problem.architecture
    mode_data = context.modes[mode.name] if context is not None else None

    exec_times: Dict[str, float] = {}
    powers: Dict[str, float] = {}
    if mode_data is not None:
        cached_times = mode_data.exec_times
        cached_powers = mode_data.powers
        for name in mode_data.task_names:
            try:
                pe_name = task_mapping[name]
            except KeyError:
                raise SchedulingError(
                    f"mode {mode.name!r}: no mapping for task {name!r}"
                ) from None
            exec_times[name] = cached_times[name][pe_name]
            powers[name] = cached_powers[name][pe_name]
        task_types = mode_data.task_types
        pe_objects = context.pes
        feasible_links = context.links_between
        predecessors = mode_data.predecessors
        successors = mode_data.successors
        in_edges = mode_data.in_edges
        graph_rank = mode_data.graph_rank
        task_names = mode_data.task_names
    else:
        for task in graph:
            try:
                pe_name = task_mapping[task.name]
            except KeyError:
                raise SchedulingError(
                    f"mode {mode.name!r}: no mapping for task {task.name!r}"
                ) from None
            entry = technology.implementation(task.task_type, pe_name)
            exec_times[task.name] = entry.exec_time
            powers[task.name] = entry.power
        task_types = {task.name: task.task_type for task in graph}
        pe_objects = {pe.name: pe for pe in architecture.pes}
        feasible_links = None
        predecessors = {
            name: graph.predecessors(name) for name in graph.task_names
        }
        successors = {
            name: graph.successors(name) for name in graph.task_names
        }
        in_edges = {name: graph.in_edges(name) for name in graph.task_names}
        graph_rank = {name: i for i, name in enumerate(graph.task_names)}
        task_names = graph.task_names

    if mobilities is None:
        mobilities = compute_mobilities(mode, lambda name: exec_times[name])

    pe_timelines: Dict[str, ResourceTimeline] = {}
    core_timelines: Dict[Tuple[str, str, int], ResourceTimeline] = {}
    link_timelines: Dict[str, ResourceTimeline] = {
        link.name: ResourceTimeline(link.name)
        for link in architecture.links
    }

    scheduled_tasks: Dict[str, ScheduledTask] = {}
    scheduled_comms: Dict[Tuple[str, str], ScheduledComm] = {}

    pending_preds = {
        name: len(predecessors[name]) for name in task_names
    }
    # Priority queue: most urgent (lowest ALAP) ready task first; ties
    # broken by graph order for determinism.
    ready: List[Tuple[float, int, str]] = []
    for name in task_names:
        if pending_preds[name] == 0:
            heapq.heappush(
                ready, (mobilities[name].alap, graph_rank[name], name)
            )

    processed = 0
    while ready:
        _, _, current = heapq.heappop(ready)
        processed += 1
        pe_name = task_mapping[current]
        pe = pe_objects[pe_name]

        # ------------------------------------------------------------
        # Communication mapping: route every incoming edge, earliest
        # arrival wins (greedy link choice with contention awareness).
        # ------------------------------------------------------------
        data_ready = 0.0
        for edge in in_edges[current]:
            producer = scheduled_tasks[edge.src]
            if producer.pe == pe_name:
                message = ScheduledComm(
                    src=edge.src,
                    dst=edge.dst,
                    link=None,
                    start=producer.end,
                    end=producer.end,
                    energy=0.0,
                )
            else:
                message = _route_message(
                    architecture,
                    link_timelines,
                    edge.src,
                    edge.dst,
                    producer.pe,
                    pe_name,
                    producer.end,
                    edge.data_bits,
                    mode.name,
                    candidates=(
                        feasible_links[(producer.pe, pe_name)]
                        if feasible_links is not None
                        else None
                    ),
                )
                link_timelines[message.link].book(
                    message.start, message.duration
                )
            scheduled_comms[edge.key] = message
            data_ready = max(data_ready, message.end)

        # ------------------------------------------------------------
        # Task placement on the execution resource.
        # ------------------------------------------------------------
        duration = exec_times[current]
        task_type = task_types[current]
        if pe.is_software:
            timeline = pe_timelines.setdefault(
                pe_name, ResourceTimeline(pe_name)
            )
            start = timeline.earliest_slot(data_ready, duration)
            timeline.book(start, duration)
            core_index: Optional[int] = None
        else:
            available = max(
                1, cores.available_cores(pe_name, mode.name, task_type)
            )
            best_start = None
            best_core = 0
            for core in range(available):
                timeline = core_timelines.setdefault(
                    (pe_name, task_type, core),
                    ResourceTimeline(f"{pe_name}/{task_type}#{core}"),
                )
                slot = timeline.earliest_slot(data_ready, duration)
                if best_start is None or slot < best_start:
                    best_start = slot
                    best_core = core
            start = best_start if best_start is not None else data_ready
            core_timelines[(pe_name, task_type, best_core)].book(
                start, duration
            )
            core_index = best_core

        scheduled_tasks[current] = ScheduledTask(
            name=current,
            task_type=task_type,
            pe=pe_name,
            start=start,
            end=start + duration,
            energy=powers[current] * duration,
            power=powers[current],
            core_index=core_index,
        )

        for succ in successors[current]:
            pending_preds[succ] -= 1
            if pending_preds[succ] == 0:
                heapq.heappush(
                    ready,
                    (mobilities[succ].alap, graph_rank[succ], succ),
                )

    if processed != len(graph):
        # Cannot happen for a validated (acyclic) task graph, but guards
        # against future model changes.
        raise SchedulingError(
            f"mode {mode.name!r}: scheduler processed {processed} of "
            f"{len(graph)} tasks"
        )

    return ModeSchedule(
        mode.name, scheduled_tasks.values(), scheduled_comms.values()
    )


def _route_message(
    architecture,
    link_timelines: Dict[str, ResourceTimeline],
    src_task: str,
    dst_task: str,
    src_pe: str,
    dst_pe: str,
    ready: float,
    data_bits: float,
    mode_name: str,
    candidates=None,
) -> ScheduledComm:
    """Pick the link delivering the message earliest and build the entry."""
    if candidates is None:
        candidates = architecture.links_between(src_pe, dst_pe)
    if not candidates:
        raise SchedulingError(
            f"mode {mode_name!r}: no communication link between "
            f"{src_pe!r} and {dst_pe!r} for message "
            f"{src_task!r}->{dst_task!r}"
        )
    best: Optional[Tuple[float, float, str, float]] = None
    for link in candidates:
        duration = link.transfer_time(data_bits)
        slot = link_timelines[link.name].earliest_slot(ready, duration)
        arrival = slot + duration
        key = (arrival, slot, link.name, duration)
        if best is None or key < best:
            best = key
    arrival, slot, link_name, duration = best
    link = architecture.link(link_name)
    return ScheduledComm(
        src=src_task,
        dst=dst_task,
        link=link_name,
        start=slot,
        end=arrival,
        energy=link.comm_power * duration,
    )
