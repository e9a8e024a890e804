"""Mapping-independent decode tables, hoisted out of the candidate path.

Every candidate evaluation used to re-derive the same data: per-task
implementation entries behind an ``O(genes)`` ``pe_of`` scan, task-graph
adjacency tuples rebuilt per access, ``links_between`` scans per
message, effective deadlines, same-type independence queries and the
per-(task, PE) voltage/duration tables of the DVS layer.  None of it
depends on the mapping string — only on the :class:`Problem`.

A :class:`DecodeContext` computes all of it exactly once (per process:
pool workers build their own at initialisation).  Per mode the tables
are rows indexed by gene position, so the mobility, core-demand and
list-scheduling kernels run on a mode's gene slice directly.  They
replicate the original float operations in the original order, so
results are bit-identical to the context-free references under
``tests/oracles``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.architecture.processing_element import ProcessingElement
from repro.problem import Problem

#: Soft cap on the memoised DVS voltage tables (segment durations vary
#: per schedule, so the memo can grow without bound on long runs).
_DVS_TABLE_CAP = 65536


class ModeDecodeData:
    """Per-mode immutable decode tables, indexed by gene position.

    A mode's gene slice lists its tasks in ``task_names`` order, so the
    slice *is* the mode mapping: position ``i`` of every row below is
    task ``task_names[i]``, mapped to ``genes[i]``.
    """

    __slots__ = (
        "task_names",
        "task_types",
        "topo",
        "preds",
        "succs",
        "in_edges",
        "exec_times",
        "powers",
        "deadline_row",
        "deadlines",
        "independent",
    )

    def __init__(self, problem: Problem, mode) -> None:
        graph = mode.task_graph
        technology = problem.technology
        self.task_names: Tuple[str, ...] = graph.task_names
        position = {name: i for i, name in enumerate(self.task_names)}
        self.task_types: Tuple[str, ...] = tuple(
            task.task_type for task in graph
        )
        self.topo: Tuple[int, ...] = tuple(
            position[name] for name in graph.topological_order()
        )
        self.preds: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(position[pred] for pred in graph.predecessors(name))
            for name in self.task_names
        )
        self.succs: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(position[succ] for succ in graph.successors(name))
            for name in self.task_names
        )
        #: Per position, ``(producer position, data bits)`` per message.
        self.in_edges: Tuple[Tuple[Tuple[int, float], ...], ...] = tuple(
            tuple(
                (position[edge.src], edge.data_bits)
                for edge in graph.in_edges(name)
            )
            for name in self.task_names
        )
        # Per position, ``{candidate PE: execution time}`` and power.
        exec_times: List[Dict[str, float]] = []
        powers: List[Dict[str, float]] = []
        for task_type, (_, candidates) in zip(
            self.task_types, problem.gene_space(mode.name)
        ):
            entries = [
                (pe_name, technology.implementation(task_type, pe_name))
                for pe_name in candidates
            ]
            exec_times.append({pe: entry.exec_time for pe, entry in entries})
            powers.append({pe: entry.power for pe, entry in entries})
        self.exec_times: Tuple[Dict[str, float], ...] = tuple(exec_times)
        self.powers: Tuple[Dict[str, float], ...] = tuple(powers)
        self.deadline_row: Tuple[float, ...] = tuple(
            mode.effective_deadline(name) for name in self.task_names
        )
        #: Name-keyed effective deadlines, for the timing checks and
        #: PV-DVS, which read schedules (scheduling order), not genes.
        self.deadlines: Dict[str, float] = dict(
            zip(self.task_names, self.deadline_row)
        )
        # Same-type independence: the core allocator asks, for tasks of
        # one type mapped to one hardware component, which group members
        # can run in parallel.  The relation only depends on the graph.
        self.independent: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(
                j
                for j, other in enumerate(self.task_names)
                if self.task_types[j] == self.task_types[i]
                and graph.independent(name, other)
            )
            for i, name in enumerate(self.task_names)
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
        "software_pes",
        "hw_dvs_pes",
        "dvs_pes",
        "_dvs_tables",
    )

    def __init__(self, problem: Problem) -> None:
        architecture = problem.architecture
        self.modes: Dict[str, ModeDecodeData] = {
            mode.name: ModeDecodeData(problem, mode)
            for mode in problem.omsm.modes
        }
        self.pes: Dict[str, ProcessingElement] = {
            pe.name: pe for pe in architecture.pes
        }
        self.links_between: Dict[Tuple[str, str], tuple] = {
            (first, second): architecture.links_between(first, second)
            for first in self.pes
            for second in self.pes
            if first != second
        }
        self.software_pes = frozenset(
            pe.name for pe in architecture.software_pes()
        )
        self.hw_dvs_pes = frozenset(
            pe.name for pe in architecture.hardware_pes() if pe.dvs_enabled
        )
        #: All DVS-enabled PEs — software and hardware alike (the
        #: hardware subset is `hw_dvs_pes`).
        self.dvs_pes = frozenset(pe.name for pe in architecture.dvs_pes())
        self._dvs_tables: Dict[
            Tuple[str, float, float],
            Tuple[Tuple[float, ...], Tuple[float, ...]],
        ] = {}

    @classmethod
    def build(cls, problem: Problem) -> "DecodeContext":
        return cls(problem)

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
