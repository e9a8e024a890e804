"""Configuration of the multi-mode co-synthesis GA."""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.errors import SynthesisError

#: Evaluation and pool switches of earlier versions.  Each one only
#: chose between bit-identical implementations or pool failure
#: policies, so specs, checkpoints and ``with_updates`` calls that still
#: carry them load with the key dropped, whatever its value.
#: ``dvs_warm_start`` and ``inner_loop_iterations`` (see
#: :func:`_drop_retired`) are the retired keys whose non-default values
#: changed results.
RETIRED_KEYS = frozenset(
    {
        "decode_cache",
        "mode_cache",
        "mode_cache_size",
        "vector_dvs",
        "async_pool",
        "speculative",
        "speculation_depth",
        "pool_failure_mode",
    }
)


def _drop_retired(values: Dict[str, Any]) -> Dict[str, Any]:
    """Strip retired keys from ``values`` (in place) and return it.

    ``dvs_warm_start: false`` and ``inner_loop_iterations: 0`` are
    dropped like the others; any other value asked for a search that
    no longer exists and is rejected.
    """
    if values.pop("dvs_warm_start", False):
        raise SynthesisError(
            "the analytical DVS warm start (dvs_warm_start) was removed; "
            "drop the key or set it to false"
        )
    if values.pop("inner_loop_iterations", 0):
        raise SynthesisError(
            "the priority-search scheduler (inner_loop_iterations) was "
            "removed; drop the key or set it to 0"
        )
    for key in RETIRED_KEYS:
        values.pop(key, None)
    return values


class DvsMethod(enum.Enum):
    """Which voltage-selection technique the inner loop applies."""

    NONE = "none"
    GRADIENT = "gradient"  # PV-DVS energy-gradient descent (proposed)
    UNIFORM = "uniform"    # naive single-stretch-factor baseline


@dataclass
class SynthesisConfig:
    """All knobs of :class:`~repro.synthesis.cosynthesis.MultiModeSynthesizer`.

    The defaults reflect the paper's setup: probability-aware fitness,
    moderate GA sizes, the four improvement strategies enabled, a 2 %
    shut-down mutation rate (the value the paper reports as working
    well) and area/transition penalty weights strong enough to push the
    search out of infeasible regions.

    Attributes
    ----------
    use_probabilities:
        ``True`` → the fitness weighs modes by their true execution
        probabilities (the proposed technique); ``False`` → uniform
        weights (the "probability neglecting" baseline of Tables 1–3).
    dvs:
        Voltage-selection method applied after scheduling each mode.  A
        value string (``"gradient"``) is converted to the enum member.
    dvs_shared_rail:
        ``True`` (paper Section 4.2): all cores of a hardware component
        share one supply rail, voltages are selected on the Fig. 5
        segment chain.  ``False``: idealised per-core rails (ablation).
    population_size / max_generations / convergence_generations:
        GA sizing; the run stops at ``max_generations`` or after
        ``convergence_generations`` without improvement of the best
        fitness.
    selection_pressure:
        Linear-scaling ranking pressure in ``[1, 2]``.
    tournament_size:
        Individuals drawn per tournament selection.
    crossover_rate / per_gene_mutation_rate:
        Standard genetic operator rates.  A ``None`` mutation rate
        defaults to ``1 / genome length``.
    elite_count:
        Best individuals copied unchanged into the next generation.
    group_mutation_rate:
        Probability per offspring of a *type group move*: all tasks of
        one (mode, type) re-mapped onto one PE.  Hardware cost is per
        core (= per type), so profitable moves are coordinated; this
        operator proposes them directly.
    shutdown_mutation_rate:
        Fraction of the population the shut-down improvement rewrites
        each generation (paper: 2 %).
    stall_generations:
        Number of consecutive generations in which *every* individual
        violates a constraint class before the corresponding repair
        mutation (area / timing / transition) fires.
    repair_fraction:
        Fraction of the population the repair mutations rewrite when
        they fire.
    bias_shutdown_by_probability:
        Pick the mode targeted by the shut-down improvement
        proportionally to its execution probability (ablation hook).
    area_weight / transition_weight / timing_weight:
        Penalty weights ``w_A``, ``w_R`` and the timing-penalty slope.
    local_search_budget_factor:
        After the GA converges, the best genome is polished by a
        first-improvement single-gene local search bounded to
        ``factor × genome length`` evaluations (0 disables).  On large
        genomes this reliably trims the last few cells of an area
        overflow the GA's crossover cannot hit exactly.
    jobs:
        Worker processes for population evaluation.  ``1`` (default)
        evaluates in-process; ``N > 1`` dispatches each generation's
        uncached genomes to a process pool
        (:class:`~repro.engine.backend.PooledBackend`), which also
        starts the exactly predicted next generation while the parent
        breeds it (:mod:`repro.synthesis.speculation`).  Results are
        bit-identical to serial evaluation for any job count.  A pool
        that dies is retired with a :class:`RuntimeWarning` and the run
        finishes in-process.
    seed:
        Seed of the synthesis RNG; runs are reproducible per seed.
    """

    use_probabilities: bool = True
    dvs: DvsMethod = DvsMethod.NONE
    dvs_shared_rail: bool = True

    population_size: int = 40
    max_generations: int = 150
    convergence_generations: int = 25
    selection_pressure: float = 1.8
    tournament_size: int = 2
    crossover_rate: float = 0.9
    per_gene_mutation_rate: Optional[float] = None
    elite_count: int = 2

    group_mutation_rate: float = 0.3

    enable_shutdown_improvement: bool = True
    enable_area_improvement: bool = True
    enable_timing_improvement: bool = True
    enable_transition_improvement: bool = True
    shutdown_mutation_rate: float = 0.02
    stall_generations: int = 4
    repair_fraction: float = 0.25
    bias_shutdown_by_probability: bool = True

    area_weight: float = 20.0
    transition_weight: float = 10.0
    timing_weight: float = 20.0

    local_search_budget_factor: float = 3.0

    jobs: int = 1

    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.dvs, DvsMethod):
            try:
                self.dvs = DvsMethod(self.dvs)
            except ValueError:
                raise SynthesisError(
                    f"unknown DVS method {self.dvs!r}; valid values "
                    f"are {[m.value for m in DvsMethod]}"
                ) from None
        if self.population_size < 2:
            raise SynthesisError("population size must be at least 2")
        if self.max_generations < 1:
            raise SynthesisError("need at least one generation")
        if not 1.0 <= self.selection_pressure <= 2.0:
            raise SynthesisError(
                "selection pressure must lie in [1, 2] for linear scaling"
            )
        if self.tournament_size < 1:
            raise SynthesisError("tournament size must be positive")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise SynthesisError("crossover rate must lie in [0, 1]")
        if self.per_gene_mutation_rate is not None and not (
            0.0 <= self.per_gene_mutation_rate <= 1.0
        ):
            raise SynthesisError("mutation rate must lie in [0, 1]")
        if self.elite_count < 0 or self.elite_count >= self.population_size:
            raise SynthesisError(
                "elite count must be in [0, population size)"
            )
        if not 0.0 <= self.group_mutation_rate <= 1.0:
            raise SynthesisError("group mutation rate must lie in [0, 1]")
        if not 0.0 <= self.shutdown_mutation_rate <= 1.0:
            raise SynthesisError("shutdown mutation rate must lie in [0, 1]")
        if not 0.0 < self.repair_fraction <= 1.0:
            raise SynthesisError("repair fraction must lie in (0, 1]")
        for name in ("area_weight", "transition_weight", "timing_weight"):
            if getattr(self, name) < 0:
                raise SynthesisError(f"{name} must be non-negative")
        if self.local_search_budget_factor < 0:
            raise SynthesisError(
                "local search budget factor must be non-negative"
            )
        if self.jobs < 1:
            raise SynthesisError("jobs must be at least 1")

    def with_updates(self, **changes: Any) -> "SynthesisConfig":
        """A copy of this configuration with some fields replaced.

        Retired keys are handled as in :meth:`from_dict`.
        """
        return dataclasses.replace(self, **_drop_retired(changes))

    # ------------------------------------------------------------------
    # Serialisation (checkpoint files, campaign specs, run metadata)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable view of every field (enums as values)."""
        data = dataclasses.asdict(self)
        data["dvs"] = self.dvs.value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SynthesisConfig":
        """Rebuild a validated config from :meth:`to_dict` output.

        Unknown keys are rejected (a typo in a hand-written campaign
        spec must not silently fall back to a default), retired keys
        are dropped (see :data:`RETIRED_KEYS`), and field values pass
        through ``__post_init__`` validation as usual.
        """
        values = _drop_retired(dict(data))
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(values) - field_names)
        if unknown:
            raise SynthesisError(
                f"unknown configuration keys: {unknown}; valid keys are "
                f"{sorted(field_names)}"
            )
        for name in ("per_gene_mutation_rate",):
            if values.get(name) is not None:
                values[name] = float(values[name])
        return cls(**values)
