"""Mapping-independent decode tables, hoisted out of the candidate path.

Every candidate evaluation used to re-derive the same data: per-task
implementation entries behind an ``O(genes)`` ``pe_of`` scan, task-graph
adjacency tuples rebuilt per access, ``links_between`` scans per
message, effective deadlines, same-type independence queries and the
per-(task, PE) voltage/duration tables of the DVS layer.  None of it
depends on the mapping string — only on the :class:`Problem`.

A :class:`DecodeContext` computes all of it exactly once (per process:
pool workers build their own at initialisation) and the evaluator's
phases read from plain dicts.  They replicate the original float
operations in the original order, so results are bit-identical to the
context-free references under ``tests/oracles``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Tuple

from repro.architecture.processing_element import ProcessingElement
from repro.problem import Problem
from repro.scheduling.mobility import MobilityInfo, asap_alap
from repro.specification.task_graph import CommEdge

#: Soft cap on the memoised DVS voltage tables (segment durations vary
#: per schedule, so the memo can grow without bound on long runs).
_DVS_TABLE_CAP = 65536


class ModeDecodeData:
    """Per-mode immutable decode tables (see :class:`DecodeContext`)."""

    __slots__ = (
        "name",
        "task_names",
        "topo_order",
        "graph_rank",
        "task_types",
        "predecessors",
        "successors",
        "in_edges",
        "deadlines",
        "exec_times",
        "powers",
        "independent_same_type",
        "period",
    )

    def __init__(self, problem: Problem, mode) -> None:
        graph = mode.task_graph
        technology = problem.technology
        self.name: str = mode.name
        self.period: float = mode.period
        self.task_names: Tuple[str, ...] = graph.task_names
        self.topo_order: Tuple[str, ...] = graph.topological_order()
        self.graph_rank: Dict[str, int] = {
            name: index for index, name in enumerate(self.task_names)
        }
        self.task_types: Dict[str, str] = {
            task.name: task.task_type for task in graph
        }
        self.predecessors: Dict[str, Tuple[str, ...]] = {
            name: graph.predecessors(name) for name in self.task_names
        }
        self.successors: Dict[str, Tuple[str, ...]] = {
            name: graph.successors(name) for name in self.task_names
        }
        self.in_edges: Dict[str, Tuple[CommEdge, ...]] = {
            name: graph.in_edges(name) for name in self.task_names
        }
        self.deadlines: Dict[str, float] = {
            name: mode.effective_deadline(name) for name in self.task_names
        }

        self.exec_times: Dict[str, Dict[str, float]] = {}
        self.powers: Dict[str, Dict[str, float]] = {}
        for task_name, candidates in problem.gene_space(mode.name):
            task_type = self.task_types[task_name]
            times: Dict[str, float] = {}
            powers: Dict[str, float] = {}
            for pe_name in candidates:
                entry = technology.implementation(task_type, pe_name)
                times[pe_name] = entry.exec_time
                powers[pe_name] = entry.power
            self.exec_times[task_name] = times
            self.powers[task_name] = powers

        # Same-type independence: the core allocator asks, for tasks of
        # one type mapped to one hardware component, which group members
        # can run in parallel.  The relation only depends on the graph.
        self.independent_same_type: Dict[str, FrozenSet[str]] = {}
        by_type: Dict[str, List[str]] = {}
        for name in self.task_names:
            by_type.setdefault(self.task_types[name], []).append(name)
        for members in by_type.values():
            if len(members) < 2:
                continue
            for name in members:
                self.independent_same_type[name] = frozenset(
                    other
                    for other in members
                    if other != name and graph.independent(name, other)
                )


class DecodeContext:
    """All mapping-independent tables of one co-synthesis problem.

    Built once per process via :func:`context_for` (or explicitly with
    :meth:`build`) and threaded through
    :func:`~repro.synthesis.evaluator.evaluate_mapping`.
    """

    __slots__ = (
        "modes",
        "pes",
        "links_between",
        "hw_dvs_pes",
        "dvs_pes",
        "_dvs_tables",
    )

    def __init__(
        self,
        modes: Dict[str, ModeDecodeData],
        pes: Dict[str, ProcessingElement],
        links_between: Dict[Tuple[str, str], tuple],
        hw_dvs_pes: FrozenSet[str],
        dvs_pes: FrozenSet[str] = frozenset(),
    ) -> None:
        self.modes = modes
        self.pes = pes
        self.links_between = links_between
        self.hw_dvs_pes = hw_dvs_pes
        #: All DVS-enabled PEs — software and hardware alike (the
        #: hardware subset is `hw_dvs_pes`).
        self.dvs_pes = dvs_pes
        self._dvs_tables: Dict[
            Tuple[str, float, float],
            Tuple[Tuple[float, ...], Tuple[float, ...]],
        ] = {}

    @classmethod
    def build(cls, problem: Problem) -> "DecodeContext":
        architecture = problem.architecture
        modes = {
            mode.name: ModeDecodeData(problem, mode)
            for mode in problem.omsm.modes
        }
        pes = {pe.name: pe for pe in architecture.pes}
        links: Dict[Tuple[str, str], tuple] = {}
        names = [pe.name for pe in architecture.pes]
        for first in names:
            for second in names:
                if first == second:
                    continue
                links[(first, second)] = architecture.links_between(
                    first, second
                )
        hw_dvs = frozenset(
            pe.name
            for pe in architecture.hardware_pes()
            if pe.dvs_enabled
        )
        dvs = frozenset(
            pe.name for pe in architecture.pes if pe.dvs_enabled
        )
        return cls(modes, pes, links, hw_dvs, dvs)

    def mode(self, mode_name: str) -> ModeDecodeData:
        return self.modes[mode_name]

    def duration_energy_tables(
        self, pe_name: str, duration: float, energy: float
    ) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Memoised per-(PE, duration, energy) DVS voltage tables.

        Task-level tables repeat exactly across candidates (a task's
        nominal duration is fixed per PE choice); segment-level tables
        repeat whenever schedules coincide.  The memo is capped to keep
        long runs bounded.
        """
        key = (pe_name, duration, energy)
        tables = self._dvs_tables.get(key)
        if tables is None:
            from repro.dvs.voltage import duration_energy_tables

            pe = self.pes[pe_name]
            tables = duration_energy_tables(
                duration, energy, pe.voltage_levels, pe.threshold_voltage
            )
            if len(self._dvs_tables) >= _DVS_TABLE_CAP:
                self._dvs_tables.clear()
            self._dvs_tables[key] = tables
        return tables

    # ------------------------------------------------------------------
    # Fast evaluator phases
    # ------------------------------------------------------------------

    def compute_mobilities(
        self, mode_name: str, pe_by_task: Mapping[str, str]
    ) -> Dict[str, MobilityInfo]:
        """ASAP/ALAP analysis of one mode mapping, on the cached tables."""
        data = self.modes[mode_name]
        exec_times = data.exec_times
        durations = {
            name: exec_times[name][pe_by_task[name]] for name in data.topo_order
        }
        return asap_alap(
            data.topo_order,
            data.predecessors,
            data.successors,
            data.deadlines,
            durations,
        )


def context_for(problem: Problem) -> DecodeContext:
    """The problem's decode context, built on first use and memoised.

    Follows the ``_genome_layout`` pattern of the mapping encoding: the
    context is pure precomputation over an immutable problem, so one
    instance per :class:`Problem` object is always valid.
    """
    cached = getattr(problem, "_decode_context", None)
    if cached is None:
        cached = DecodeContext.build(problem)
        problem._decode_context = cached  # type: ignore[attr-defined]
    return cached
