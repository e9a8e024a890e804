"""Hardware core allocation (paper Fig. 4, lines 4–6).

Every task type mapped to a hardware component needs at least one core
of that type on the component.  Beyond the minimum, the allocator adds
extra cores for *parallel tasks with low mobility* — same-type tasks
that are independent in the task graph and whose scheduling freedom is
smaller than their execution time, so serialising them on one core would
push them past their ALAP start.  Extra cores are only added while the
component's area permits.

Area accounting distinguishes the two hardware kinds:

* **ASIC** — the core set is static; the per-type core count must cover
  the worst mode, and the total area of this union configuration is
  charged against the component.
* **FPGA** — the component is reconfigured at mode changes, so each
  mode's configuration is charged separately (the *largest* mode's area
  counts), and swapping configurations costs reconfiguration time that
  is checked against the OMSM transition limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

from repro.architecture.processing_element import PEKind, ProcessingElement
from repro.mapping.encoding import MappingString, mode_bounds
from repro.problem import Problem
from repro.scheduling.mobility import gene_mobility

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.decode_cache import ModeDecodeData


@dataclass
class CoreAllocation:
    """Result of hardware core allocation for one mapping candidate.

    Attributes
    ----------
    counts:
        ``{pe: {mode: {task_type: cores available}}}`` — what the
        scheduler may use.  For ASICs the counts are identical across
        modes (static configuration); for FPGAs they are per-mode.
    area_used:
        ``{pe: cells}`` — ASIC: union-configuration area; FPGA: area of
        the largest per-mode configuration.
    """

    counts: Dict[str, Dict[str, Dict[str, int]]]
    area_used: Dict[str, float]
    _problem: Problem

    def available_cores(
        self, pe_name: str, mode_name: str, task_type: str
    ) -> int:
        """Cores of ``task_type`` usable on ``pe_name`` during a mode."""
        return (
            self.counts.get(pe_name, {}).get(mode_name, {}).get(task_type, 0)
        )

    def area_violation(self, pe_name: str) -> float:
        """Cells by which the component's area constraint is exceeded."""
        pe = self._problem.architecture.pe(pe_name)
        if not pe.is_hardware:
            return 0.0
        return max(0.0, self.area_used.get(pe_name, 0.0) - pe.area)

    def area_violations(self) -> Dict[str, float]:
        """All violating PEs with their overshoot in cells."""
        result: Dict[str, float] = {}
        for pe in self._problem.architecture.hardware_pes():
            overshoot = self.area_violation(pe.name)
            if overshoot > 0:
                result[pe.name] = overshoot
        return result

    def is_area_feasible(self) -> bool:
        return not self.area_violations()

    # ------------------------------------------------------------------
    # Mode transitions (FPGA reconfiguration)
    # ------------------------------------------------------------------

    def transition_time(self, src_mode: str, dst_mode: str) -> float:
        """Reconfiguration time of the mode change ``src -> dst``.

        FPGAs load the cores present in the destination configuration
        but absent (or under-provisioned) in the source configuration;
        configuration proceeds per cell at the component's
        ``reconfig_time_per_cell`` rate.  Multiple FPGAs reconfigure in
        parallel, so the transition takes the slowest component's time.
        """
        slowest = 0.0
        for pe in self._problem.architecture.hardware_pes():
            if pe.kind is not PEKind.FPGA:
                continue
            src_counts = self.counts.get(pe.name, {}).get(src_mode, {})
            dst_counts = self.counts.get(pe.name, {}).get(dst_mode, {})
            load_area = 0.0
            for task_type, dst_count in dst_counts.items():
                missing = dst_count - src_counts.get(task_type, 0)
                if missing > 0:
                    entry = self._problem.technology.implementation(
                        task_type, pe.name
                    )
                    load_area += missing * entry.area
            slowest = max(
                slowest, load_area * pe.reconfig_time_per_cell
            )
        return slowest

    def transition_times(self) -> Dict[Tuple[str, str], float]:
        """Reconfiguration time for every OMSM transition."""
        return {
            transition.key: self.transition_time(
                transition.src, transition.dst
            )
            for transition in self._problem.omsm.transitions
        }

    def transition_violations(self) -> Dict[Tuple[str, str], float]:
        """Transitions whose reconfiguration exceeds ``t_T^max``.

        Maps the transition key to the ratio ``t_T / t_T^max`` (> 1).
        Only FPGAs reconfigure, so without one every transition takes
        no time and none can exceed its (positive) limit.
        """
        violations: Dict[Tuple[str, str], float] = {}
        if not any(
            pe.kind is PEKind.FPGA
            for pe in self._problem.architecture.hardware_pes()
        ):
            return violations
        for transition in self._problem.omsm.transitions:
            needed = self.transition_time(transition.src, transition.dst)
            if needed > transition.max_time:
                violations[transition.key] = needed / transition.max_time
        return violations


#: Per-PE ``(base_counts, desired_counts)`` core demand of one mode.
ModeDemand = Dict[str, Tuple[Dict[str, int], Dict[str, int]]]


def allocate_cores(problem: Problem, mapping: MappingString) -> CoreAllocation:
    """Derive the hardware core sets implied by a mapping string.

    Runs the evaluation pipeline's own stages: per mode the mobilities
    of its gene slice and :func:`mode_demand`, then
    :func:`combine_cores`.
    """
    from repro.engine.decode_cache import context_for

    context = context_for(problem)
    demands: Dict[str, ModeDemand] = {}
    for mode_name, start, end in mode_bounds(problem):
        data = context.modes[mode_name]
        genes = mapping.genes[start:end]
        demands[mode_name] = mode_demand(
            problem, data, genes, gene_mobility(data, genes)[1]
        )
    return combine_cores(problem, demands)


def mode_demand(
    problem: Problem,
    mode_data: "ModeDecodeData",
    genes: Sequence[str],
    mobility: Sequence[float],
) -> ModeDemand:
    """Minimum and desired core counts of one mode on every hardware PE.

    The minimum is one core per task type with at least one task mapped
    to the PE.  The desired count additionally provisions cores for
    parallel low-mobility tasks: within a (PE, type) group sorted by
    mobility, the k-th member (k = 1, 2, ...) deserves its own core when
    it is independent of some other group member and its mobility is
    below ``k`` times the type's execution time — i.e. when queueing
    behind the k earlier executions on a single core would push it past
    its ALAP start.  ``genes`` is the mode's gene slice and ``mobility``
    is indexed by gene position, so the result depends only on the
    slice and the pipeline caches it per mode.
    """
    groups: Dict[str, Dict[str, List[int]]] = {
        pe.name: {} for pe in problem.architecture.hardware_pes()
    }
    task_types = mode_data.task_types
    for task, pe_name in enumerate(genes):
        pe_groups = groups.get(pe_name)
        if pe_groups is not None:
            pe_groups.setdefault(task_types[task], []).append(task)
    independent = mode_data.independent
    demand: ModeDemand = {}
    for pe_name, pe_groups in groups.items():
        base_counts: Dict[str, int] = {}
        desired_counts: Dict[str, int] = {}
        for task_type, members in pe_groups.items():
            base_counts[task_type] = 1
            extra = 0
            if len(members) > 1:
                exec_time = mode_data.exec_times[members[0]][pe_name]
                ordered = sorted(members, key=mobility.__getitem__)
                for rank, task in enumerate(ordered[1:], start=1):
                    parallel = not independent[task].isdisjoint(members)
                    urgent = mobility[task] < rank * exec_time
                    if parallel and urgent:
                        extra += 1
            desired_counts[task_type] = 1 + min(extra, len(members) - 1)
        demand[pe_name] = (base_counts, desired_counts)
    return demand


def combine_cores(
    problem: Problem, demands: Mapping[str, ModeDemand]
) -> CoreAllocation:
    """Fit the per-mode demands of all modes into the hardware PEs.

    The only cross-mode coupling of core allocation: ASICs take the
    per-type max over modes (union configuration), FPGAs fit each mode
    separately.  Modes are visited in OMSM order, which fixes the
    greedy fitting order.  Every mode's entry of an ASIC is the one
    union count table; nothing mutates ``counts`` after allocation.
    """
    counts: Dict[str, Dict[str, Dict[str, int]]] = {}
    area_used: Dict[str, float] = {}
    mode_names = problem.omsm.mode_names
    mode_demands = [demands[mode_name] for mode_name in mode_names]
    for pe in problem.architecture.hardware_pes():
        pe_demands = [demand[pe.name] for demand in mode_demands]
        if pe.kind is PEKind.ASIC:
            union, used = _fit_asic(problem, pe, pe_demands)
            counts[pe.name] = dict.fromkeys(mode_names, union)
        else:
            counts[pe.name], used = _fit_fpga(
                problem, pe, mode_names, pe_demands
            )
        area_used[pe.name] = used
    return CoreAllocation(counts=counts, area_used=area_used, _problem=problem)


def _core_areas(problem: Problem) -> Dict[str, Dict[str, float]]:
    """``{hardware PE: {task type: core area}}`` (cached per problem)."""
    cached = getattr(problem, "_core_areas", None)
    if cached is None:
        cached = {pe.name: {} for pe in problem.architecture.hardware_pes()}
        for entry in problem.technology:
            if entry.pe in cached:
                cached[entry.pe][entry.task_type] = entry.area
        problem._core_areas = cached  # type: ignore[attr-defined]
    return cached


def _fit_asic(
    problem: Problem,
    pe: ProcessingElement,
    demands: Sequence[Tuple[Dict[str, int], Dict[str, int]]],
) -> Tuple[Dict[str, int], float]:
    """Static configuration: per-type max over modes, shared by all modes.

    ``demands`` holds every mode's ``(base, desired)`` counts on ``pe``,
    in OMSM order.  Returns the one count table and its area.
    """
    areas = _core_areas(problem)[pe.name]
    # The per-type max of the base counts, in first-seen order.
    final: Dict[str, int] = {}
    for base_counts, _ in demands:
        for task_type, count in base_counts.items():
            known = final.get(task_type)
            if known is None or count > known:
                final[task_type] = count
    used = sum(
        count * areas[task_type] for task_type, count in final.items()
    )
    # The per-type max of the desired counts, kept only where it asks
    # for more cores than the base union has.
    wanted: Dict[str, int] = {}
    for _, desired_counts in demands:
        for task_type, want in desired_counts.items():
            if want > wanted.get(task_type, final.get(task_type, 0)):
                wanted[task_type] = want
    if not wanted:
        return final, used
    # Add desired extra cores greedily (smallest area first) while the
    # component still has room.
    extras: List[Tuple[float, str]] = []
    for task_type, want in sorted(wanted.items()):
        area = areas[task_type]
        for _ in range(want - final.get(task_type, 0)):
            extras.append((area, task_type))
    extras.sort()
    for area, task_type in extras:
        if used + area <= pe.area:
            final[task_type] = final.get(task_type, 0) + 1
            used += area
    return final, used


def _fit_fpga(
    problem: Problem,
    pe: ProcessingElement,
    mode_names: Sequence[str],
    demands: Sequence[Tuple[Dict[str, int], Dict[str, int]]],
) -> Tuple[Dict[str, Dict[str, int]], float]:
    """Per-mode configurations; the largest mode's area is charged."""
    areas = _core_areas(problem)[pe.name]
    per_mode: Dict[str, Dict[str, int]] = {}
    worst_area = 0.0
    for mode_name, (base_counts, desired_counts) in zip(mode_names, demands):
        final = dict(base_counts)
        used = sum(
            count * areas[task_type] for task_type, count in final.items()
        )
        extras: List[Tuple[float, str]] = []
        for task_type, want in sorted(desired_counts.items()):
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
