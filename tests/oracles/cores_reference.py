"""The seed's context-free mobility analysis and core allocator (oracle).

Frozen copies of :func:`repro.scheduling.mobility.compute_mobilities`,
:func:`repro.mapping.cores.allocate_cores` and its per-mode demand
kernels (``_per_mode_demand``, ``mode_pe_demand``) as they stood before
the decode tables became the only runtime implementation: mobilities
walk the task graph's own adjacency, and core demand scans the genome
with ``pe_of`` and queries ``TaskGraph.independent``.  The greedy
fitting (``_fit_asic``, ``_fit_fpga``) is frozen here as it stood
before the runtime's ASIC fit started sharing one count table across
modes; :class:`CoreAllocation` stays shared with the runtime.
:mod:`tests.oracles.seed_evaluator` allocates through this module, and
``tests/mapping/test_cores.py`` compares the runtime allocator with it
on every registry instance.

Do not optimise this module; its value is being the unchanged
reference.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.architecture.processing_element import PEKind, ProcessingElement
from repro.errors import SchedulingError
from repro.mapping.cores import CoreAllocation
from repro.mapping.encoding import MappingString
from repro.problem import Problem
from repro.scheduling.mobility import MobilityInfo
from repro.specification.mode import Mode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.decode_cache import DecodeContext


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

    asap: Dict[str, float] = {}
    for name in order:
        arrival = 0.0
        for pred in graph.predecessors(name):
            arrival = max(arrival, asap[pred] + durations[pred])
        asap[name] = arrival

    alap: Dict[str, float] = {}
    for name in reversed(order):
        latest_finish = mode.effective_deadline(name)
        for succ in graph.successors(name):
            latest_finish = min(latest_finish, alap[succ])
        alap[name] = latest_finish - durations[name]

    return {
        name: MobilityInfo(asap=asap[name], alap=alap[name]) for name in order
    }


def allocate_cores(
    problem: Problem,
    mapping: MappingString,
    mobilities: Optional[Mapping[str, Mapping[str, MobilityInfo]]] = None,
    context: Optional["DecodeContext"] = None,
    mode_mappings: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> CoreAllocation:
    """Derive the hardware core sets implied by a mapping string.

    Parameters
    ----------
    problem:
        The co-synthesis instance.
    mapping:
        The multi-mode mapping string to realise.
    mobilities:
        Optional per-mode mobility tables (``{mode: {task: info}}``).
        Computed on demand when omitted.
    context:
        Optional decode context; supplies precomputed task types and
        same-type independence, avoiding per-candidate graph queries.
    mode_mappings:
        Optional predecoded ``{mode: {task: pe}}`` dictionaries (the
        evaluator already built them); avoids ``O(genes)`` ``pe_of``
        scans per task.
    """
    architecture = problem.architecture
    technology = problem.technology
    if mobilities is None:
        mobilities = {
            mode.name: compute_mobilities(
                mode,
                lambda task, _m=mode: technology.implementation(
                    _m.task_graph.task(task).task_type,
                    mapping.pe_of(_m.name, task),
                ).exec_time,
            )
            for mode in problem.omsm.modes
        }

    counts: Dict[str, Dict[str, Dict[str, int]]] = {}
    area_used: Dict[str, float] = {}
    mode_names = problem.omsm.mode_names

    for pe in architecture.hardware_pes():
        base, desired = _per_mode_demand(
            problem, mapping, mobilities, pe, context, mode_mappings
        )
        if pe.kind is PEKind.ASIC:
            pe_counts, used = _fit_asic(problem, pe, base, desired)
        else:
            pe_counts, used = _fit_fpga(problem, pe, base, desired)
        counts[pe.name] = {
            mode_name: pe_counts.get(mode_name, {})
            for mode_name in mode_names
        }
        area_used[pe.name] = used

    return CoreAllocation(counts=counts, area_used=area_used, _problem=problem)


def _per_mode_demand(
    problem: Problem,
    mapping: MappingString,
    mobilities: Mapping[str, Mapping[str, MobilityInfo]],
    pe: ProcessingElement,
    context: Optional["DecodeContext"] = None,
    mode_mappings: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> Tuple[Dict[str, Dict[str, int]], Dict[str, Dict[str, int]]]:
    """Minimum and desired per-mode core counts for one hardware PE.

    The minimum is one core per task type with at least one task mapped
    here.  The desired count additionally provisions cores for parallel
    low-mobility tasks: within a (mode, type) group sorted by mobility,
    the k-th member (k = 1, 2, ...) deserves its own core when it is
    independent of some other group member and its mobility is below
    ``k`` times the type's execution time — i.e. when queueing behind
    the k earlier executions on a single core would push it past its
    ALAP start.
    """
    base: Dict[str, Dict[str, int]] = {}
    desired: Dict[str, Dict[str, int]] = {}
    for mode in problem.omsm.modes:
        mode_data = context.modes[mode.name] if context is not None else None
        pe_by_task = (
            mode_mappings[mode.name] if mode_mappings is not None else None
        )
        base_counts, desired_counts = mode_pe_demand(
            problem,
            mode,
            pe,
            mobilities[mode.name],
            mapping=mapping,
            mode_data=mode_data,
            pe_by_task=pe_by_task,
        )
        base[mode.name] = base_counts
        desired[mode.name] = desired_counts
    return base, desired


def mode_pe_demand(
    problem: Problem,
    mode,
    pe: ProcessingElement,
    mode_mobilities: Mapping[str, MobilityInfo],
    mapping: Optional[MappingString] = None,
    mode_data=None,
    pe_by_task: Optional[Mapping[str, str]] = None,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Minimum and desired core counts of one (mode, hardware PE) pair.

    The single-mode kernel of :func:`_per_mode_demand`, shared with the
    incremental evaluation pipeline: the result depends only on the
    mode's gene slice (through ``pe_by_task``/``mapping``) and its
    mobilities, so it can be memoised per mode.  Either ``mode_data`` +
    ``pe_by_task`` (decode-cache fast path) or ``mapping`` (legacy
    path) must be provided.
    """
    graph = mode.task_graph
    groups: Dict[str, List[str]] = {}
    if mode_data is not None and pe_by_task is not None:
        task_types = mode_data.task_types
        for name in mode_data.task_names:
            if pe_by_task[name] == pe.name:
                groups.setdefault(task_types[name], []).append(name)
    else:
        assert mapping is not None
        for task in graph:
            if mapping.pe_of(mode.name, task.name) == pe.name:
                groups.setdefault(task.task_type, []).append(task.name)
    base_counts: Dict[str, int] = {}
    desired_counts: Dict[str, int] = {}
    for task_type, members in groups.items():
        base_counts[task_type] = 1
        extra = 0
        if len(members) > 1:
            entry = problem.technology.implementation(task_type, pe.name)
            ordered = sorted(
                members,
                key=lambda n: mode_mobilities[n].mobility,
            )
            for position, name in enumerate(ordered[1:], start=1):
                if mode_data is not None:
                    independent = mode_data.independent_same_type.get(
                        name, frozenset()
                    )
                    parallel = any(
                        other in independent
                        for other in members
                        if other != name
                    )
                else:
                    parallel = any(
                        graph.independent(name, other)
                        for other in members
                        if other != name
                    )
                urgent = (
                    mode_mobilities[name].mobility
                    < position * entry.exec_time
                )
                if parallel and urgent:
                    extra += 1
        desired_counts[task_type] = 1 + min(extra, len(members) - 1)
    return base_counts, desired_counts


def _core_areas(problem: Problem) -> Dict[str, Dict[str, float]]:
    """``{hardware PE: {task type: core area}}`` (cached per problem).

    Cached under its own attribute, apart from the runtime's table.
    """
    cached = getattr(problem, "_reference_core_areas", None)
    if cached is None:
        cached = {pe.name: {} for pe in problem.architecture.hardware_pes()}
        for entry in problem.technology:
            if entry.pe in cached:
                cached[entry.pe][entry.task_type] = entry.area
        problem._reference_core_areas = cached  # type: ignore[attr-defined]
    return cached


def _fit_asic(
    problem: Problem,
    pe: ProcessingElement,
    base: Dict[str, Dict[str, int]],
    desired: Dict[str, Dict[str, int]],
) -> Tuple[Dict[str, Dict[str, int]], float]:
    """Static configuration: per-type max over modes, shared by all modes."""
    areas = _core_areas(problem)[pe.name]
    base_union: Dict[str, int] = {}
    desired_union: Dict[str, int] = {}
    for mode_counts in base.values():
        for task_type, count in mode_counts.items():
            base_union[task_type] = max(
                base_union.get(task_type, 0), count
            )
    for mode_counts in desired.values():
        for task_type, count in mode_counts.items():
            desired_union[task_type] = max(
                desired_union.get(task_type, 0), count
            )
    final = dict(base_union)
    used = sum(
        count * areas[task_type] for task_type, count in final.items()
    )
    # Add desired extra cores greedily (smallest area first) while the
    # component still has room.
    extras: List[Tuple[float, str]] = []
    for task_type, want in sorted(desired_union.items()):
        area = areas[task_type]
        for _ in range(want - final.get(task_type, 0)):
            extras.append((area, task_type))
    extras.sort()
    for area, task_type in extras:
        if used + area <= pe.area:
            final[task_type] = final.get(task_type, 0) + 1
            used += area
    per_mode = {mode_name: dict(final) for mode_name in base}
    return per_mode, used


def _fit_fpga(
    problem: Problem,
    pe: ProcessingElement,
    base: Dict[str, Dict[str, int]],
    desired: Dict[str, Dict[str, int]],
) -> Tuple[Dict[str, Dict[str, int]], float]:
    """Per-mode configurations; the largest mode's area is charged."""
    areas = _core_areas(problem)[pe.name]
    per_mode: Dict[str, Dict[str, int]] = {}
    worst_area = 0.0
    for mode_name, base_counts in base.items():
        final = dict(base_counts)
        used = sum(
            count * areas[task_type] for task_type, count in final.items()
        )
        extras: List[Tuple[float, str]] = []
        for task_type, want in sorted(desired[mode_name].items()):
            area = areas[task_type]
            for _ in range(want - final.get(task_type, 0)):
                extras.append((area, task_type))
        extras.sort()
        for area, task_type in extras:
            if used + area <= pe.area:
                final[task_type] = final.get(task_type, 0) + 1
                used += area
        per_mode[mode_name] = final
        worst_area = max(worst_area, used)
    return per_mode, worst_area
