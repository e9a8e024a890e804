"""The co-synthesis problem: specification + architecture + technology.

:class:`Problem` bundles everything the synthesis needs — the OMSM, the
allocated architecture and the technology library — and validates their
mutual consistency once, so downstream code (scheduler, power model, GA)
can assume a well-formed instance.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import SpecificationError, TechnologyError
from repro.architecture.platform import Architecture
from repro.architecture.technology import TechnologyLibrary
from repro.specification.omsm import OMSM


class Problem:
    """A complete, validated multi-mode co-synthesis instance.

    Parameters
    ----------
    omsm:
        The multi-mode application.
    architecture:
        The allocated target architecture.
    technology:
        Implementation alternatives for every task type of the OMSM.

    Raises
    ------
    TechnologyError
        If some task type lacks an implementation, or library entries are
        inconsistent with the architecture.
    SpecificationError
        If the OMSM is empty (cannot happen for validated OMSMs).
    """

    def __init__(
        self,
        omsm: OMSM,
        architecture: Architecture,
        technology: TechnologyLibrary,
    ) -> None:
        technology.validate_against(architecture, omsm.all_task_types())
        self.omsm = omsm
        self.architecture = architecture
        self.technology = technology
        self._gene_space = self._build_gene_space()

    def _build_gene_space(self) -> Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]]:
        """Per mode: ordered (task name, candidate PE names) pairs.

        This is the genome layout used by the mapping encoding — one
        gene per (mode, task), whose alleles are the PEs on which the
        task's type has an implementation.
        """
        space: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {}
        for mode in self.omsm.modes:
            entries = []
            for task in mode.task_graph:
                candidates = self.technology.candidate_pes(task.task_type)
                if not candidates:
                    raise TechnologyError(
                        f"task {task.name!r} (type {task.task_type!r}) has "
                        f"no candidate PE"
                    )
                entries.append((task.name, candidates))
            space[mode.name] = tuple(entries)
        return space

    @property
    def name(self) -> str:
        return self.omsm.name

    def gene_space(
        self, mode_name: str
    ) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """Ordered ``(task, candidate PEs)`` pairs for one mode."""
        try:
            return self._gene_space[mode_name]
        except KeyError:
            raise SpecificationError(
                f"problem {self.name!r}: unknown mode {mode_name!r}"
            ) from None

    def genome_length(self) -> int:
        """Total number of genes (sum of task counts over all modes)."""
        return sum(len(genes) for genes in self._gene_space.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Problem({self.name!r}, modes={len(self.omsm)}, "
            f"pes={len(self.architecture.pes)}, "
            f"genes={self.genome_length()})"
        )
