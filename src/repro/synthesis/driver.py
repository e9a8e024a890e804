"""The generation driver: a declarative loop over pipeline stages.

This is the thin core that used to be the monolithic
``MultiModeSynthesizer._run``.  Each generation is an explicit stage
sequence — evaluate → assess → (restart) → speculate → breed →
improve — where every stage is a pure function from
:mod:`repro.synthesis.operators` / :mod:`repro.synthesis.improvements`
and evaluation goes through a pluggable
:class:`~repro.engine.backend.EvaluationBackend`.  The driver knows
*what* to evaluate and in which order; it never knows where the
evaluation runs.

Speculation slots into the one place the loop structure allows it:
once a generation's records have landed (and any restart has been
re-evaluated), the next batch is fully determined by pure stages over
known inputs — so the driver predicts it on a cloned RNG
(:mod:`repro.synthesis.speculation`) and offers it to the backend
*before* breeding for real.  By the time the next
:meth:`evaluate_population` call submits the real batch, the pool has
been computing it for the whole breeding window.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.engine.backend import EvaluationBackend
from repro.engine.profile import PROFILER, PerfStats
from repro.engine.records import EvalRecord
from repro.errors import SynthesisError
from repro.mapping.encoding import MappingString
from repro.mapping.implementation import Implementation
from repro.obs.metrics import REGISTRY
from repro.problem import Problem
from repro.synthesis import improvements, operators, speculation
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.evaluator import evaluate_mapping
from repro.synthesis.state import GAState


@dataclass
class SynthesisResult:
    """Outcome of one synthesis run.

    ``best`` is the fully decoded best implementation found; ``history``
    records the best fitness after every generation; ``cpu_time`` is the
    wall-clock optimisation time in seconds (the quantity the paper's
    "CPU time" columns report); ``perf`` carries the per-phase timing
    and cache statistics collected by the evaluation engine;
    ``mode_powers`` is the stable per-mode power breakdown (see below).
    """

    best: Implementation
    generations: int
    evaluations: int
    cpu_time: float
    history: List[float] = field(default_factory=list)
    perf: Optional[PerfStats] = None
    #: Per-mode power breakdown of the best candidate, in watts:
    #: ``{mode: {"dynamic": …, "static": …}}``.  This is the quantity
    #: Equation (1) is *linear* in — ``p̄(Ψ) = Σ_O (dyn_O + stat_O)·Ψ_O``
    #: for any probability vector — so persisting it lets any stored
    #: design be re-scored exactly under a new Ψ without re-simulation.
    #: Serialised by :func:`repro.io.result_to_dict` and carried on
    #: campaign ``job_finished`` events / result records.
    mode_powers: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.mode_powers and self.best is not None:
            metrics = self.best.metrics
            self.mode_powers = {
                mode: {
                    "dynamic": metrics.dynamic_power[mode],
                    "static": metrics.static_power[mode],
                }
                for mode in metrics.dynamic_power
            }

    @property
    def average_power(self) -> float:
        """True-probability Equation (1) power of the best candidate."""
        return self.best.metrics.average_power

    @property
    def is_feasible(self) -> bool:
        return self.best.metrics.is_feasible

    def mode_power(self, mode_name: str) -> float:
        """Total (dynamic + static) power of one mode, in watts."""
        entry = self.mode_powers[mode_name]
        return entry["dynamic"] + entry["static"]


class GenerationDriver:
    """Runs the GA stage pipeline for one problem instance.

    Owns the per-genome result cache and the evaluation counters of a
    run.  Every caller builds a fresh
    :class:`~repro.synthesis.cosynthesis.MultiModeSynthesizer`, and so
    a fresh driver, per run.
    """

    def __init__(self, problem: Problem, config: SynthesisConfig) -> None:
        self.problem = problem
        self.config = config
        self.genome_cache: Dict[MappingString, EvalRecord] = {}
        self.evaluations = 0
        self.cache_hits = 0
        self.dedup_hits = 0

    # ------------------------------------------------------------------
    # Evaluation with caching
    # ------------------------------------------------------------------

    def evaluate_population(
        self,
        population: Sequence[MappingString],
        backend: EvaluationBackend,
    ) -> List[EvalRecord]:
        """Evaluate one generation: dedup, cache lookup, batch dispatch.

        Duplicate population slots (clones survive crossover and
        elitism routinely) collapse to one evaluation, cached genomes
        are answered without re-decoding, and only the remaining unique
        misses reach the backend.  Results are returned per slot, in
        population order.  Local search evaluates its candidates here
        too, one genome at a time.
        """
        unique: Dict[MappingString, None] = {}
        for genome in population:
            unique.setdefault(genome, None)
        self.dedup_hits += len(population) - len(unique)
        pending = [g for g in unique if g not in self.genome_cache]
        self.cache_hits += len(unique) - len(pending)
        if pending:
            backend.submit(pending)
            results = backend.drain()
            self.evaluations += len(pending)
            for genome, record in zip(pending, results):
                self.genome_cache[genome] = record
        return [self.genome_cache[genome] for genome in population]

    # ------------------------------------------------------------------
    # Speculation
    # ------------------------------------------------------------------

    def _speculate_next(
        self,
        backend: EvaluationBackend,
        mutation_rate: float,
        population: Sequence[MappingString],
        records: Sequence[EvalRecord],
        rng: random.Random,
        area_stall: int,
        timing_stall: int,
        transition_stall: int,
        best_genome: MappingString,
    ) -> None:
        """Predict the next batch and offer it to the backend early.

        The ``speculate`` profiler phase times the prediction only;
        the dispatch itself is the backend's.
        """
        with PROFILER.phase("speculate"):
            predicted = speculation.predict_next_batch(
                self.config,
                mutation_rate,
                population,
                records,
                rng.getstate(),
                area_stall,
                timing_stall,
                transition_stall,
                best_genome,
            )
            # The batch the next evaluate_population() will actually
            # submit: deduplicated, minus everything already cached.
            batch = [
                g
                for g in dict.fromkeys(predicted)
                if g not in self.genome_cache
            ]
        if batch:
            backend.speculate(batch)

    # ------------------------------------------------------------------
    # The optimisation loop
    # ------------------------------------------------------------------

    def run(
        self,
        backend: EvaluationBackend,
        resume: Optional[GAState] = None,
        on_generation: Optional[Callable[[GAState], None]] = None,
    ) -> SynthesisResult:
        """Execute the GA over ``backend``; see the module docstring.

        ``resume`` continues a previous run from a
        :class:`~repro.synthesis.state.GAState` snapshot —
        bit-identically, because the snapshot carries the RNG state and
        the full population.  ``on_generation`` is called with a fresh
        snapshot after every completed generation; a checkpointing
        runtime persists (some of) these snapshots to disk.
        """
        config = self.config
        problem = self.problem
        started = time.perf_counter()
        profile_base = PROFILER.snapshot()
        metrics_base = REGISTRY.snapshot()
        mutation_rate = config.per_gene_mutation_rate
        if mutation_rate is None:
            mutation_rate = 1.0 / max(1, problem.genome_length())

        if resume is not None:
            # Continue exactly where the snapshot left off: the RNG
            # resumes mid-stream, the population is the bred-and-mutated
            # one the interrupted run would have evaluated next.
            rng = resume.restore_rng()
            population = [
                MappingString(problem, genes)
                for genes in resume.population
            ]
            if len(population) != config.population_size:
                raise SynthesisError(
                    f"resume snapshot has population "
                    f"{len(population)}, configuration expects "
                    f"{config.population_size}"
                )
            best_genome = (
                MappingString(problem, resume.best_genes)
                if resume.best_genes is not None
                else None
            )
            best_fitness = resume.best_fitness
            stagnant = resume.stagnant
            area_stall = resume.area_stall
            timing_stall = resume.timing_stall
            transition_stall = resume.transition_stall
            history = list(resume.history)
            self.evaluations = resume.evaluations
            generation = resume.generation
            start_generation = resume.generation + 1
        else:
            rng = random.Random(config.seed)
            population = operators.initial_population(
                problem, config, rng
            )
            best_genome = None
            best_fitness = math.inf
            stagnant = 0
            area_stall = 0
            timing_stall = 0
            transition_stall = 0
            history = []
            generation = 0
            start_generation = 1

        for generation in range(
            start_generation, config.max_generations + 1
        ):
            generation_started = time.perf_counter()
            # --- evaluate ----------------------------------------------
            records = self.evaluate_population(population, backend)

            # --- assess ------------------------------------------------
            improved = False
            for genome, record in zip(population, records):
                if record.fitness < best_fitness - 1e-15:
                    best_fitness = record.fitness
                    best_genome = genome
                    improved = True
            stagnant = 0 if improved else stagnant + 1
            history.append(best_fitness)
            REGISTRY.inc("ga_generations_total")
            if math.isfinite(best_fitness):
                REGISTRY.set_gauge("ga_best_fitness", best_fitness)

            if stagnant >= config.convergence_generations:
                REGISTRY.observe(
                    "ga_generation_seconds",
                    time.perf_counter() - generation_started,
                )
                break

            # --- restart -----------------------------------------------
            if improvements.restart_due(config, stagnant):
                # Partial restart against premature convergence: the
                # worst half of the population is replaced with fresh
                # random/software-biased genomes (elites and the best
                # are never touched).
                population = improvements.partial_restart(
                    problem, population, records, rng
                )
                records = self.evaluate_population(population, backend)

            # --- speculate ---------------------------------------------
            # From here to the next evaluate_population() call, every
            # stage is a pure function of (population, records, rng) —
            # so the next batch is predictable *now*, and the backend
            # can be computing it while the parent breeds it for real.
            # The last generation's offspring are never evaluated, so
            # there is nothing to predict there.
            if (
                best_genome is not None
                and generation < config.max_generations
                and backend.supports_speculation
            ):
                self._speculate_next(
                    backend,
                    mutation_rate,
                    population,
                    records,
                    rng,
                    area_stall,
                    timing_stall,
                    transition_stall,
                    best_genome,
                )

            # --- breed -------------------------------------------------
            population = operators.breed_next(
                config, mutation_rate, population, records, rng
            )

            # --- improve -----------------------------------------------
            area_stall, timing_stall, transition_stall = (
                improvements.update_stalls(
                    records, area_stall, timing_stall, transition_stall
                )
            )
            population = improvements.apply_improvements(
                config,
                population,
                records,
                rng,
                area_stall,
                timing_stall,
                transition_stall,
                best_genome,
            )
            area_stall, timing_stall, transition_stall = (
                improvements.reset_stalls(
                    config, area_stall, timing_stall, transition_stall
                )
            )

            REGISTRY.observe(
                "ga_generation_seconds",
                time.perf_counter() - generation_started,
            )
            if on_generation is not None:
                # The end of the generation body is the one clean
                # resume point: the next-generation population is bred,
                # the counters are settled, and no RNG draw separates
                # this state from the top of the next iteration.
                on_generation(
                    GAState(
                        generation=generation,
                        rng_state=rng.getstate(),
                        population=[g.genes for g in population],
                        best_genes=(
                            best_genome.genes
                            if best_genome is not None
                            else None
                        ),
                        best_fitness=best_fitness,
                        stagnant=stagnant,
                        area_stall=area_stall,
                        timing_stall=timing_stall,
                        transition_stall=transition_stall,
                        history=list(history),
                        evaluations=self.evaluations,
                    )
                )

        # An early dispatch no batch adopted is abandoned before the
        # serial polish; collecting it settles the accounting.
        backend.cancel_speculation()

        if best_genome is None:
            raise SynthesisError(
                "synthesis produced no evaluable candidate (architecture "
                "may be missing communication links)"
            )
        # --- local search ----------------------------------------------
        if config.local_search_budget_factor > 0:
            best_genome = improvements.local_search(
                problem,
                config,
                best_genome,
                rng,
                lambda genome: self.evaluate_population([genome], backend)[0],
            )
        best = evaluate_mapping(problem, best_genome, config)
        if best is None:  # pragma: no cover - guarded by fitness < inf
            raise SynthesisError("best candidate became infeasible")
        elapsed = time.perf_counter() - started
        perf = PerfStats(
            evaluations=self.evaluations,
            cache_hits=self.cache_hits,
            dedup_hits=self.dedup_hits,
            wall_time=elapsed,
            jobs=config.jobs,
        )
        perf.merge_phase_totals(PROFILER.delta_since(profile_base))
        backend.finalize_perf(perf)
        # Mode-result cache activity of this run: sum the labelled
        # counters (per mode, per stage) accumulated since the start.
        # Pool-worker activity is already folded in — chunk results
        # merge their metric deltas into this registry on arrival.
        metrics_delta = REGISTRY.delta_since(metrics_base).get("counters", {})
        for (metric_name, _labels), value in metrics_delta.items():
            if metric_name == "eval_mode_cache_hits_total":
                perf.mode_cache_hits += int(value)
            elif metric_name == "eval_mode_cache_misses_total":
                perf.mode_cache_misses += int(value)
            elif metric_name == "eval_mode_cache_evictions_total":
                perf.mode_cache_evictions += int(value)
        REGISTRY.inc("ga_runs_total")
        return SynthesisResult(
            best=best,
            generations=generation,
            evaluations=self.evaluations,
            cpu_time=elapsed,
            history=history,
            perf=perf,
        )
