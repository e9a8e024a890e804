"""The multi-mode mapping string — the GA genome.

A mapping candidate assigns every task of every mode to one processing
element capable of executing its type.  Following the paper (Fig. 2, the
"Mapping String" column), all per-mode assignments are concatenated into
a single flat string so that standard genetic operators (two-point
crossover, gene mutation) apply directly.  Gene order is fixed by the
problem's gene space: modes in OMSM order, tasks in task-graph insertion
order.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.errors import MappingError
from repro.problem import Problem


class MappingString:
    """An immutable genome: one PE name per (mode, task) gene.

    Instances compare and hash by gene content, so populations can be
    deduplicated with sets/dicts.  The constructor validates every
    gene; ``with_gene``/``with_genes`` check the genes they set, and
    ``mutate``/``crossover_two_point`` build children from parent genes
    and candidate picks without a re-check.
    """

    __slots__ = ("_problem", "_genes", "_hash")

    def __init__(self, problem: Problem, genes: Sequence[str]) -> None:
        layout = _layout(problem)
        if len(genes) != len(layout):
            raise MappingError(
                f"genome length {len(genes)} does not match problem "
                f"({len(layout)} genes)"
            )
        for gene, entry in zip(genes, layout):
            _check_gene(entry, gene)
        self._problem = problem
        self._genes: Tuple[str, ...] = tuple(genes)
        self._hash = hash(self._genes)

    @classmethod
    def _valid(cls, problem: Problem, genes: Tuple[str, ...]) -> "MappingString":
        """A genome of genes already known to be valid (not re-checked)."""
        genome = object.__new__(cls)
        genome._problem = problem
        genome._genes = genes
        genome._hash = hash(genes)
        return genome

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def random(cls, problem: Problem, rng: random.Random) -> "MappingString":
        """A uniformly random valid genome."""
        genes = [
            rng.choice(candidates) for _, _, candidates in _layout(problem)
        ]
        return cls(problem, genes)

    @classmethod
    def random_software_biased(
        cls, problem: Problem, rng: random.Random, bias: float = 0.8
    ) -> "MappingString":
        """A random genome preferring software implementations.

        Each gene picks among the software candidates with probability
        ``bias`` (falling back to a uniform pick when the type has no
        software implementation).  Used to seed the GA population with
        area-feasible footholds — on large problems a uniform pick maps
        roughly half the tasks into hardware, which almost surely
        violates every area constraint.
        """
        software = {
            pe.name for pe in problem.architecture.software_pes()
        }
        genes = []
        for _, _, candidates in _layout(problem):
            sw_candidates = [c for c in candidates if c in software]
            if sw_candidates and rng.random() < bias:
                genes.append(rng.choice(sw_candidates))
            else:
                genes.append(rng.choice(candidates))
        return cls(problem, genes)

    @classmethod
    def from_mapping(
        cls, problem: Problem, mapping: Mapping[str, Mapping[str, str]]
    ) -> "MappingString":
        """Build a genome from ``{mode: {task: pe}}`` dictionaries."""
        genes: List[str] = []
        for mode, task, _ in _layout(problem):
            try:
                genes.append(mapping[mode][task])
            except KeyError:
                raise MappingError(
                    f"mapping misses an assignment for task {task!r} in "
                    f"mode {mode!r}"
                ) from None
        return cls(problem, genes)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def problem(self) -> Problem:
        return self._problem

    @property
    def genes(self) -> Tuple[str, ...]:
        return self._genes

    def __len__(self) -> int:
        return len(self._genes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._genes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MappingString):
            return NotImplemented
        return self._genes == other._genes

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MappingString({list(self._genes)!r})"

    def mode_mapping(self, mode_name: str) -> Dict[str, str]:
        """Task → PE assignment for one mode (``M_τ^O``)."""
        for mode, start, end in mode_bounds(self._problem):
            if mode == mode_name:
                layout = _layout(self._problem)
                return {
                    layout[index][1]: self._genes[index]
                    for index in range(start, end)
                }
        raise MappingError(f"unknown mode {mode_name!r}")

    def full_mapping(self) -> Dict[str, Dict[str, str]]:
        """``{mode: {task: pe}}`` for all modes."""
        return {
            mode.name: self.mode_mapping(mode.name)
            for mode in self._problem.omsm.modes
        }

    def pe_of(self, mode_name: str, task_name: str) -> str:
        """The PE executing ``task_name`` in ``mode_name``."""
        return self._genes[self.gene_index(mode_name, task_name)]

    # ------------------------------------------------------------------
    # Genetic operators
    # ------------------------------------------------------------------

    def with_gene(self, index: int, pe: str) -> "MappingString":
        """A copy with gene ``index`` replaced (validated)."""
        return self.with_genes({index: pe})

    def with_genes(
        self, replacements: Mapping[int, str]
    ) -> "MappingString":
        """A copy with several genes replaced at once (each validated)."""
        layout = _layout(self._problem)
        genes = list(self._genes)
        for index, pe in replacements.items():
            if not 0 <= index < len(genes):
                raise MappingError(f"gene index {index} out of range")
            _check_gene(layout[index], pe)
            genes[index] = pe
        return MappingString._valid(self._problem, tuple(genes))

    def mutate(
        self, rng: random.Random, per_gene_rate: float
    ) -> "MappingString":
        """Uniform gene mutation: each gene re-drawn with probability."""
        layout = _layout(self._problem)
        genes = list(self._genes)
        changed = False
        for index, (_, _, candidates) in enumerate(layout):
            if len(candidates) > 1 and rng.random() < per_gene_rate:
                alternatives = [c for c in candidates if c != genes[index]]
                genes[index] = rng.choice(alternatives)
                changed = True
        if not changed:
            return self
        return MappingString._valid(self._problem, tuple(genes))

    def crossover_two_point(
        self, other: "MappingString", rng: random.Random
    ) -> Tuple["MappingString", "MappingString"]:
        """Two-point crossover (paper Fig. 4, line 17).

        Because both parents are valid genomes over the same gene space,
        exchanging any gene range yields valid offspring.
        """
        if self._problem is not other._problem:
            raise MappingError(
                "cannot cross genomes from different problems"
            )
        length = len(self._genes)
        if length < 2:
            return self, other
        first = rng.randrange(0, length)
        second = rng.randrange(0, length)
        low, high = min(first, second), max(first, second)
        if low == high:
            high = min(high + 1, length)
        child_a = list(self._genes)
        child_b = list(other._genes)
        child_a[low:high], child_b[low:high] = (
            child_b[low:high],
            child_a[low:high],
        )
        return (
            MappingString._valid(self._problem, tuple(child_a)),
            MappingString._valid(self._problem, tuple(child_b)),
        )

    # ------------------------------------------------------------------
    # Gene index helpers (used by the improvement mutations)
    # ------------------------------------------------------------------

    def gene_index(self, mode_name: str, task_name: str) -> int:
        """Flat index of the gene for (mode, task)."""
        index = _gene_positions(self._problem).get((mode_name, task_name))
        if index is None:
            if all(mode != mode_name for mode, _, _ in mode_bounds(self._problem)):
                raise MappingError(f"unknown mode {mode_name!r}")
            raise MappingError(
                f"no task {task_name!r} in mode {mode_name!r}"
            )
        return index

    def candidates_at(self, index: int) -> Tuple[str, ...]:
        """Candidate PEs of the gene at a flat index."""
        layout = _layout(self._problem)
        if not 0 <= index < len(layout):
            raise MappingError(f"gene index {index} out of range")
        return layout[index][2]


def _check_gene(entry: Tuple[str, str, Tuple[str, ...]], gene: str) -> None:
    """Raise unless ``gene`` is a candidate of its layout ``entry``."""
    mode, task, candidates = entry
    if gene not in candidates:
        raise MappingError(
            f"gene for task {task!r} in mode {mode!r} assigns "
            f"{gene!r}, not among candidates {list(candidates)}"
        )


def _layout(problem: Problem) -> Tuple[Tuple[str, str, Tuple[str, ...]], ...]:
    """Flat ``(mode, task, candidates)`` tuples in genome order (cached)."""
    cached = getattr(problem, "_genome_layout", None)
    if cached is None:
        entries: List[Tuple[str, str, Tuple[str, ...]]] = []
        for mode in problem.omsm.modes:
            for task, candidates in problem.gene_space(mode.name):
                entries.append((mode.name, task, candidates))
        cached = tuple(entries)
        problem._genome_layout = cached  # type: ignore[attr-defined]
    return cached


def mode_bounds(problem: Problem) -> Tuple[Tuple[str, int, int], ...]:
    """``(mode, start, end)`` genome-slice bounds per mode (cached)."""
    cached = getattr(problem, "_mode_bounds", None)
    if cached is None:
        entries: List[Tuple[str, int, int]] = []
        start = 0
        for mode in problem.omsm.modes:
            length = len(problem.gene_space(mode.name))
            entries.append((mode.name, start, start + length))
            start += length
        cached = tuple(entries)
        problem._mode_bounds = cached  # type: ignore[attr-defined]
    return cached


def _gene_positions(problem: Problem) -> Dict[Tuple[str, str], int]:
    """``{(mode, task): flat gene index}`` (cached)."""
    cached = getattr(problem, "_gene_positions", None)
    if cached is None:
        cached = {
            (mode, task): index
            for index, (mode, task, _) in enumerate(_layout(problem))
        }
        problem._gene_positions = cached  # type: ignore[attr-defined]
    return cached
