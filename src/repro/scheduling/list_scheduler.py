"""Mobility-driven list scheduling with greedy communication mapping.

This is the inner optimisation loop of the co-synthesis (paper Fig. 4,
line 10, following the LOPOCOS technique of ref. [12]).  For one
operational mode and a fixed task mapping it:

* chooses, for every inter-PE message, the attached link that delivers
  the data earliest (communication mapping ``M_γ``), and
* constructs a static schedule ``S_ε`` by processing tasks in ALAP
  (urgency) order, booking software processors, hardware core instances
  and links as serial resources with earliest-gap insertion.

Since modes are mutually exclusive, each mode is scheduled independently
with a single-mode technique — exactly the argument the paper makes.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.errors import SchedulingError
from repro.problem import Problem
from repro.scheduling.mobility import MobilityInfo
from repro.scheduling.schedule import ModeSchedule, ResourceTimeline
from repro.specification.mode import Mode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.decode_cache import DecodeContext
    from repro.mapping.cores import CoreAllocation


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
        Decode context with precomputed implementation tables,
        adjacency and feasible-link tables; resolved per problem when
        omitted.

    The schedule's arrays are filled in scheduling order, and every
    booked resource's timeline supplies its activity order.

    Raises
    ------
    SchedulingError
        If a message must travel between two PEs that share no link
        (communication-infeasible mapping), or if the mapping misses a
        task.
    """
    if context is None:
        from repro.engine.decode_cache import context_for

        context = context_for(problem)
    mode_data = context.modes[mode.name]
    exec_times: Dict[str, float] = {}
    powers: Dict[str, float] = {}
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
    successors = mode_data.successors
    in_edges = mode_data.in_edges
    graph_rank = mode_data.graph_rank
    task_names = mode_data.task_names

    if mobilities is None:
        mobilities = context.compute_mobilities(mode.name, task_mapping)

    pe_timelines: Dict[str, ResourceTimeline] = {}
    core_timelines: Dict[Tuple[str, str, int], ResourceTimeline] = {}
    link_timelines: Dict[str, ResourceTimeline] = {
        link.name: ResourceTimeline(link.name)
        for link in problem.architecture.links
    }

    # The schedule's arrays, in scheduling order (see ModeSchedule).
    names: List[str] = []
    index_of: Dict[str, int] = {}
    types, pes, core_of, power_of, starts, ends, energies = (
        [] for _ in range(7)
    )
    srcs, dsts, src_tasks, dst_tasks, links = ([] for _ in range(5))
    comm_starts, comm_ends, comm_energies = ([] for _ in range(3))

    pending_preds = {
        name: len(mode_data.predecessors[name]) for name in task_names
    }
    # Priority queue: most urgent (lowest ALAP) ready task first; ties
    # broken by graph order for determinism.
    ready: List[Tuple[float, int, str]] = []
    for name in task_names:
        if pending_preds[name] == 0:
            heapq.heappush(
                ready, (mobilities[name].alap, graph_rank[name], name)
            )

    while ready:
        _, _, current = heapq.heappop(ready)
        pe_name = task_mapping[current]
        pe = pe_objects[pe_name]
        index = len(names)

        # ------------------------------------------------------------
        # Communication mapping: route every incoming edge, earliest
        # arrival wins (greedy link choice with contention awareness).
        # ------------------------------------------------------------
        data_ready = 0.0
        for edge in in_edges[current]:
            producer = index_of[edge.src]
            produced = ends[producer]
            src_pe = pes[producer]
            link_name: Optional[str] = None
            arrival = slot = produced
            energy = 0.0
            if src_pe != pe_name:
                candidates = feasible_links[(src_pe, pe_name)]
                if not candidates:
                    raise SchedulingError(
                        f"mode {mode.name!r}: no communication link between "
                        f"{src_pe!r} and {pe_name!r} for message "
                        f"{edge.src!r}->{current!r}"
                    )
                best: Optional[Tuple[float, float, str, float]] = None
                for candidate in candidates:
                    transfer = candidate.transfer_time(edge.data_bits)
                    slot = link_timelines[candidate.name].earliest_slot(
                        produced, transfer
                    )
                    key = (slot + transfer, slot, candidate.name, transfer)
                    if best is None or key < best:
                        best = key
                        link = candidate
                arrival, slot, link_name, transfer = best
                energy = link.comm_power * transfer
                link_timelines[link_name].book(
                    slot, arrival - slot, len(srcs)
                )
            srcs.append(edge.src)
            dsts.append(current)
            src_tasks.append(producer)
            dst_tasks.append(index)
            links.append(link_name)
            comm_starts.append(slot)
            comm_ends.append(arrival)
            comm_energies.append(energy)
            if arrival > data_ready:
                data_ready = arrival

        # ------------------------------------------------------------
        # Task placement on the execution resource.
        # ------------------------------------------------------------
        duration = exec_times[current]
        task_type = task_types[current]
        core_index: Optional[int] = None
        if pe.is_software:
            timeline = pe_timelines.get(pe_name)
            if timeline is None:
                timeline = pe_timelines[pe_name] = ResourceTimeline(pe_name)
            start = timeline.earliest_slot(data_ready, duration)
        else:
            available = max(
                1, cores.available_cores(pe_name, mode.name, task_type)
            )
            start = data_ready
            best_start = None
            for core in range(available):
                key = (pe_name, task_type, core)
                core_timeline = core_timelines.get(key)
                if core_timeline is None:
                    core_timeline = core_timelines[key] = ResourceTimeline(
                        f"{pe_name}/{task_type}#{core}"
                    )
                slot = core_timeline.earliest_slot(data_ready, duration)
                if best_start is None or slot < best_start:
                    best_start = start = slot
                    core_index = core
                    timeline = core_timeline
        timeline.book(start, duration, index)

        power = powers[current]
        index_of[current] = index
        names.append(current)
        types.append(task_type)
        pes.append(pe_name)
        core_of.append(core_index)
        power_of.append(power)
        starts.append(start)
        ends.append(start + duration)
        energies.append(power * duration)

        for succ in successors[current]:
            pending_preds[succ] -= 1
            if pending_preds[succ] == 0:
                heapq.heappush(
                    ready,
                    (mobilities[succ].alap, graph_rank[succ], succ),
                )

    if len(names) != len(task_names):
        # Cannot happen for a validated (acyclic) task graph, but guards
        # against future model changes.
        raise SchedulingError(
            f"mode {mode.name!r}: scheduler processed {len(names)} of "
            f"{len(task_names)} tasks"
        )

    # Timelines created while comparing cores but never booked hold no
    # activity and stay out of the resource order.
    task_order = [
        timeline.order(names.__getitem__)
        for timelines in (pe_timelines, core_timelines)
        for timeline in timelines.values()
        if len(timeline)
    ]
    comm_order = [
        timeline.order(lambda i: (srcs[i], dsts[i]))
        for timeline in link_timelines.values()
        if len(timeline)
    ]
    return ModeSchedule.from_arrays(
        mode.name,
        task_names=names,
        task_types=types,
        task_pes=pes,
        task_cores=core_of,
        task_powers=power_of,
        task_starts=starts,
        task_ends=ends,
        task_energies=energies,
        task_pieces=[()] * len(names),
        task_index=index_of,
        comm_srcs=srcs,
        comm_dsts=dsts,
        comm_src_tasks=src_tasks,
        comm_dst_tasks=dst_tasks,
        comm_links=links,
        comm_starts=comm_starts,
        comm_ends=comm_ends,
        comm_energies=comm_energies,
        task_order=task_order,
        comm_order=comm_order,
    )
