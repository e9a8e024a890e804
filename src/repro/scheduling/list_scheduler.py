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

from collections.abc import Mapping
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SchedulingError
from repro.problem import Problem
from repro.scheduling.mobility import gene_mobility
from repro.scheduling.schedule import ModeSchedule, ResourceTimeline
from repro.specification.mode import Mode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.decode_cache import DecodeContext
    from repro.mapping.cores import CoreAllocation


def schedule_mode(
    problem: Problem,
    mode: Mode,
    task_mapping: Union[Sequence[str], Mapping],
    cores: "CoreAllocation",
    alap: Optional[Sequence[float]] = None,
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
        The mode's gene slice (one PE per task, in ``task_names``
        order), or a ``{task name: PE name}`` dict covering every task
        of the mode.
    cores:
        Core allocation; bounds how many same-type hardware tasks can
        run in parallel on each component.
    alap:
        Optional precomputed ALAP start per gene position (the list
        priority); computed from the mapping when omitted.
    context:
        Decode context with the mode's position-indexed tables and the
        feasible-link table; resolved per problem when omitted.

    Tasks leave a ready heap by ``(ALAP start, gene position)``, so
    ties go to the earlier task of the graph.  The schedule's arrays
    are filled in scheduling order, and every booked resource's
    timeline supplies its activity order.

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
    task_names = mode_data.task_names
    if isinstance(task_mapping, Mapping):
        try:
            genes = tuple([task_mapping[name] for name in task_names])
        except KeyError as missing:
            raise SchedulingError(
                f"mode {mode.name!r}: no mapping for task {missing.args[0]!r}"
            ) from None
    else:
        genes = tuple(task_mapping)
    if alap is None:
        alap = gene_mobility(mode_data, genes)[0]
    exec_times = mode_data.exec_times
    powers = mode_data.powers
    task_types = mode_data.task_types
    in_edges = mode_data.in_edges
    successors = mode_data.succs
    software = context.software_pes
    feasible_links = context.links_between
    # Core counts of this mode, resolved once: {pe: {type: cores}}.
    mode_cores = {
        pe_name: per_mode.get(mode.name, {})
        for pe_name, per_mode in cores.counts.items()
    }

    # Timelines are created when their first activity is booked; a
    # task's resource is its software PE or (PE, type, core index).
    task_timelines: Dict[object, ResourceTimeline] = {}
    link_timelines: Dict[str, ResourceTimeline] = {}

    # The schedule's arrays, in scheduling order (see ModeSchedule).
    names: List[str] = []
    index_of = [-1] * len(genes)
    types, pes, core_of, power_of, starts, ends, energies = (
        [] for _ in range(7)
    )
    srcs, dsts, src_tasks, dst_tasks, links = ([] for _ in range(5))
    comm_starts, comm_ends, comm_energies = ([] for _ in range(3))

    pending_preds = [len(preds) for preds in mode_data.preds]
    # Most urgent (lowest ALAP) ready task first; ties broken by gene
    # position, which is graph order.
    ready = [
        (alap[task], task)
        for task, count in enumerate(pending_preds)
        if count == 0
    ]
    heapify(ready)

    while ready:
        current = heappop(ready)[1]
        pe_name = genes[current]
        name = task_names[current]
        index = len(names)

        # ------------------------------------------------------------
        # Communication mapping: route every incoming edge, earliest
        # arrival wins (greedy link choice with contention awareness).
        # ------------------------------------------------------------
        data_ready = 0.0
        for src, data_bits in in_edges[current]:
            producer = index_of[src]
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
                        f"{task_names[src]!r}->{name!r}"
                    )
                best: Optional[Tuple[float, float, str, float]] = None
                for candidate in candidates:
                    transfer = candidate.transfer_time(data_bits)
                    timeline = link_timelines.get(candidate.name)
                    if timeline is not None:
                        slot = timeline.earliest_slot(produced, transfer)
                    else:
                        slot = produced
                    key = (slot + transfer, slot, candidate.name, transfer)
                    if best is None or key < best:
                        best = key
                        link = candidate
                arrival, slot, link_name, transfer = best
                energy = link.comm_power * transfer
                timeline = link_timelines.get(link_name)
                if timeline is None:
                    timeline = link_timelines[link_name] = ResourceTimeline(
                        link_name
                    )
                timeline.book(slot, arrival - slot, len(srcs))
            srcs.append(task_names[src])
            dsts.append(name)
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
        duration = exec_times[current][pe_name]
        task_type = task_types[current]
        core_index: Optional[int] = None
        if pe_name in software:
            timeline = task_timelines.get(pe_name)
            if timeline is None:
                timeline = task_timelines[pe_name] = ResourceTimeline(pe_name)
            start = timeline.earliest_slot(data_ready, duration)
        else:
            available = max(
                1, mode_cores.get(pe_name, {}).get(task_type, 0)
            )
            for core in range(available):
                core_timeline = task_timelines.get((pe_name, task_type, core))
                if core_timeline is None:
                    slot = data_ready
                else:
                    slot = core_timeline.earliest_slot(data_ready, duration)
                if core_index is None or slot < start:
                    start = slot
                    core_index = core
                    timeline = core_timeline
                if core_timeline is None:
                    # Cores are booked in index order, so this is the
                    # first idle one: no later core starts earlier.
                    break
            if timeline is None:
                timeline = task_timelines[
                    (pe_name, task_type, core_index)
                ] = ResourceTimeline(f"{pe_name}/{task_type}#{core_index}")
        timeline.book(start, duration, index)

        power = powers[current][pe_name]
        index_of[current] = index
        names.append(name)
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
                heappush(ready, (alap[succ], succ))

    if len(names) != len(task_names):
        # Cannot happen for a validated (acyclic) task graph, but guards
        # against future model changes.
        raise SchedulingError(
            f"mode {mode.name!r}: scheduler processed {len(names)} of "
            f"{len(task_names)} tasks"
        )

    task_order = tuple(
        tuple(timeline.order(names.__getitem__))
        for timeline in task_timelines.values()
    )
    comm_order = tuple(
        tuple(timeline.order(lambda i: (srcs[i], dsts[i])))
        for timeline in link_timelines.values()
    )
    return ModeSchedule.from_arrays(
        mode.name,
        task_names=tuple(names),
        task_types=tuple(types),
        task_pes=tuple(pes),
        task_cores=tuple(core_of),
        task_powers=tuple(power_of),
        task_starts=tuple(starts),
        task_ends=tuple(ends),
        task_energies=tuple(energies),
        task_pieces=((),) * len(names),
        task_index=dict(zip(names, range(len(names)))),
        comm_srcs=tuple(srcs),
        comm_dsts=tuple(dsts),
        comm_src_tasks=tuple(src_tasks),
        comm_dst_tasks=tuple(dst_tasks),
        comm_links=tuple(links),
        comm_starts=tuple(comm_starts),
        comm_ends=tuple(comm_ends),
        comm_energies=tuple(comm_energies),
        task_order=task_order,
        comm_order=comm_order,
    )
