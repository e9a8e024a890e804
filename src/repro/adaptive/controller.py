"""The closed adaptation loop: observe → estimate → detect → act.

:class:`AdaptationController` consumes a mode trace visit by visit,
accounting the deployed design's energy as it goes, and reacts to
drift in two escalating ways:

1. **Swap** — deploy the library's best design under the estimated Ψ.
   The swap is not free: the OMSM's mode-transition time (FPGA
   reconfiguration, paper Section 2.1.1) is charged as switching cost —
   the old design keeps burning power in the current mode for the
   transition duration.
2. **Re-synthesis** — when even the library's best design is far from
   the per-mode lower bound (library-span regret) or the estimated Ψ is
   far from every stored design's Ψ (novelty), the controller launches
   a *warm-started* GA run: the initial population is seeded from the
   deployed design and the library's nearest designs (plus mutants and
   random fill), injected through the existing
   :class:`~repro.synthesis.state.GAState` / ``run(resume=)``
   checkpoint hooks.  The new design is admitted to the library and
   deployed if it wins.

Every decision is observable: counters/histograms on the process-global
:data:`repro.obs.metrics.REGISTRY` and structured events on an optional
``events.jsonl`` stream (same format as campaign events).  All decisions
are driven by seeded RNG and simulated time only, so a fixed seed makes
the whole closed loop bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.adaptive.drift import DriftConfig, DriftDetector
from repro.adaptive.estimator import PsiEstimator
from repro.adaptive.library import (
    DesignLibrary,
    DesignRecord,
    psi_distance,
)
from repro.errors import SpecificationError
from repro.mapping.encoding import MappingString
from repro.obs.metrics import REGISTRY
from repro.problem import Problem
from repro.runtime.events import EventLog
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer
from repro.synthesis.state import GAState


@dataclass(frozen=True)
class AdaptationConfig:
    """All knobs of the adaptation loop.

    ``half_life``/``prior_weight`` parameterise the Ψ estimator (the
    prior is the deployed design's synthesis-Ψ); ``drift`` holds the
    detector thresholds; ``resynthesis_regret`` and
    ``resynthesis_novelty`` escalate a drift event into a warm-started
    re-synthesis when the library-span regret or the distance from
    every stored Ψ exceeds them; ``synthesis`` configures the GA used
    for re-synthesis (its ``population_size`` bounds the warm seeds);
    ``seed_designs`` is how many nearest library designs seed the warm
    population; ``switch_time`` overrides the charged mode-transition
    time (default: the largest finite ``t_T^max`` of the OMSM);
    ``max_resyntheses`` caps GA launches per run; ``seed`` drives every
    random decision of the loop.
    """

    half_life: float = 50.0
    prior_weight: float = 5.0
    drift: DriftConfig = field(default_factory=DriftConfig)
    resynthesis_regret: float = 0.05
    resynthesis_novelty: float = 0.10
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    seed_designs: int = 3
    switch_time: Optional[float] = None
    max_resyntheses: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.half_life <= 0:
            raise SpecificationError(
                f"half_life must be positive, got {self.half_life}"
            )
        if self.seed_designs < 1:
            raise SpecificationError(
                f"seed_designs must be >= 1, got {self.seed_designs}"
            )
        if self.max_resyntheses < 0:
            raise SpecificationError(
                f"max_resyntheses must be non-negative, "
                f"got {self.max_resyntheses}"
            )


@dataclass
class AdaptationDecision:
    """One recorded controller action (for the report and tests)."""

    time: float
    kind: str  # "swap" | "resynthesis"
    design: str
    regret: float
    distance: float
    reason: str


@dataclass
class AdaptationReport:
    """Outcome of one closed-loop run over a trace."""

    energy: float
    simulated_time: float
    deployed: str
    psi_estimate: Dict[str, float]
    decisions: List[AdaptationDecision] = field(default_factory=list)
    swaps: int = 0
    resyntheses: int = 0
    drift_events: int = 0

    @property
    def average_power(self) -> float:
        if self.simulated_time <= 0:
            return 0.0
        return self.energy / self.simulated_time


def trace_energy(
    record: DesignRecord, visits: Iterable[Any]
) -> float:
    """Energy (joules) one fixed design burns over a trace.

    The static-deployment baseline the closed-loop demo compares
    against: ``Σ dwell · p(mode)`` with no switching and no adaptation.
    """
    total = 0.0
    for visit in visits:
        if isinstance(visit, tuple):
            mode, dwell = visit
        else:
            mode, dwell = visit.mode, visit.duration
        total += dwell * record.mode_power(mode)
    return total


def warm_population(
    problem: Problem,
    config: SynthesisConfig,
    seeds: List[Tuple[str, ...]],
    rng: random.Random,
) -> List[Tuple[str, ...]]:
    """A GA initial population seeded from known-good designs.

    Layout: the seeds verbatim, then mutants of the seeds (round-robin,
    ~2 expected gene flips each) up to half the population, then
    software-biased/random individuals alternating for exploration.
    Deterministic given ``rng``; genes transfer verbatim because
    re-targeting Ψ leaves the gene layout unchanged
    (:meth:`repro.problem.Problem.with_probabilities`).  The re-target
    also carries over the per-mode result cache (cached timing
    violations and powers are Ψ-independent), so re-evaluating seeds and their mutants
    under the new probabilities is mostly cache hits — the warm start
    is warm at the evaluation level too, not just in the population.
    """
    if not seeds:
        raise SpecificationError("warm start needs at least one seed")
    size = config.population_size
    genome_length = problem.genome_length()
    mutant_rate = min(1.0, 2.0 / max(1, genome_length))
    population: List[Tuple[str, ...]] = []
    for genes in seeds:
        if len(population) >= size:
            break
        population.append(tuple(genes))
    index = 0
    while len(population) < (size + 1) // 2:
        parent = MappingString(problem, seeds[index % len(seeds)])
        population.append(parent.mutate(rng, mutant_rate).genes)
        index += 1
    toggle = True
    while len(population) < size:
        if toggle:
            genome = MappingString.random_software_biased(problem, rng)
        else:
            genome = MappingString.random(problem, rng)
        population.append(genome.genes)
        toggle = not toggle
    return population[:size]


def warm_state(
    problem: Problem,
    config: SynthesisConfig,
    seeds: List[Tuple[str, ...]],
    rng: random.Random,
) -> GAState:
    """A generation-0 :class:`GAState` carrying a warm population.

    ``run(resume=)`` treats it as a snapshot taken before generation 1,
    so the GA evaluates the seeded population instead of a random one —
    warm start through the existing checkpoint hooks, no new GA API.
    """
    population = warm_population(problem, config, seeds, rng)
    return GAState(
        generation=0,
        rng_state=rng.getstate(),
        population=population,
        best_genes=None,
        best_fitness=math.inf,
        stagnant=0,
        area_stall=0,
        timing_stall=0,
        transition_stall=0,
        history=[],
        evaluations=0,
    )


class AdaptationController:
    """Closed-loop Ψ adaptation over one problem instance.

    Parameters
    ----------
    problem:
        The design-time instance (its OMSM carries the design-time Ψ).
    library:
        The design library; must contain at least one feasible design.
        The controller deploys ``initial_design`` (or the library's
        best under the design-time Ψ) and admits re-synthesised
        designs back into it.
    config:
        See :class:`AdaptationConfig`.
    event_log:
        Optional :class:`~repro.runtime.events.EventLog`; adaptation
        events ride the same JSONL stream campaign events use.
    initial_design:
        Name of the record to deploy initially.
    jobs:
        Worker processes for re-synthesis GA runs; ``None`` keeps the
        value from ``config.synthesis.jobs``.
    """

    def __init__(
        self,
        problem: Problem,
        library: DesignLibrary,
        config: Optional[AdaptationConfig] = None,
        event_log: Optional[EventLog] = None,
        initial_design: Optional[str] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self.problem = problem
        self.library = library
        self.config = config or AdaptationConfig()
        self.events = event_log
        self.jobs = jobs
        design_psi = problem.omsm.probability_vector()
        if initial_design is not None:
            self.deployed = library.get(initial_design)
        else:
            self.deployed, _ = library.best(design_psi)
        self.estimator = PsiEstimator(
            problem.omsm.mode_names,
            half_life=self.config.half_life,
            prior=self.deployed.psi,
            prior_weight=self.config.prior_weight,
        )
        self.detector = DriftDetector(self.config.drift)
        self.now = 0.0
        self.energy = 0.0
        self.decisions: List[AdaptationDecision] = []
        self.drift_events = 0
        self.swaps = 0
        self.resyntheses = 0
        self._current_mode: Optional[str] = None

    # ------------------------------------------------------------------
    # Switching cost
    # ------------------------------------------------------------------

    def switch_time(self) -> float:
        """Charged per swap: the OMSM's largest finite ``t_T^max``.

        Deploying a different design means reloading cores — the same
        physical process a mode transition performs — so its time bound
        is the natural cost model.  ``config.switch_time`` overrides.
        """
        if self.config.switch_time is not None:
            return self.config.switch_time
        times = [
            t.max_time
            for t in self.problem.omsm.transitions
            if math.isfinite(t.max_time)
        ]
        return max(times) if times else 0.0

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def step(self, mode: str, dwell: float) -> None:
        """Account one visit, then check for (and react to) drift.

        The estimator checks the visit first, so a rejected visit
        changes neither the energy, the clock nor the estimate.
        """
        self.estimator.observe(mode, dwell)
        self._current_mode = mode
        self.energy += dwell * self.deployed.mode_power(mode)
        self.now += dwell
        self._check_drift()

    def run(self, visits: Iterable[Any]) -> AdaptationReport:
        """Consume a whole trace and return the run report."""
        for visit in visits:
            if isinstance(visit, tuple):
                mode, dwell = visit
            else:
                mode, dwell = visit.mode, visit.duration
            self.step(mode, dwell)
        return self.report()

    def report(self) -> AdaptationReport:
        return AdaptationReport(
            energy=self.energy,
            simulated_time=self.now,
            deployed=self.deployed.name,
            psi_estimate=self.estimator.estimate(),
            decisions=list(self.decisions),
            swaps=self.swaps,
            resyntheses=self.resyntheses,
            drift_events=self.drift_events,
        )

    # ------------------------------------------------------------------
    # Drift handling
    # ------------------------------------------------------------------

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)

    def _check_drift(self) -> None:
        psi_hat = self.estimator.estimate()
        confidence = self.estimator.confidence()
        deployed_score = self.deployed.score(psi_hat)
        best, best_score = self.library.best(psi_hat)
        decision = self.detector.update(
            now=self.now,
            psi_estimate=psi_hat,
            confidence=confidence,
            deployed_score=deployed_score,
            best_score=best_score,
            deployed_psi=self.deployed.psi,
        )
        REGISTRY.inc("adapt_drift_checks")
        REGISTRY.observe("adapt_regret", max(0.0, decision.regret))
        REGISTRY.set_gauge("adapt_confidence", confidence)
        REGISTRY.set_gauge("adapt_energy_joules", self.energy)
        if not decision.drift:
            return
        self.drift_events += 1
        REGISTRY.inc("adapt_drift_detected")
        self._emit(
            "adapt_drift",
            time=self.now,
            reason=decision.reason,
            regret=decision.regret,
            distance=decision.distance,
            deployed=self.deployed.name,
            psi=psi_hat,
        )
        if best.name != self.deployed.name and best_score < deployed_score:
            self._swap(best, decision.regret, decision.distance, "library")
            deployed_score = best_score
        self._maybe_resynthesize(
            psi_hat, best_score, decision.regret, decision.distance
        )

    def _swap(
        self,
        record: DesignRecord,
        regret: float,
        distance: float,
        reason: str,
    ) -> None:
        cost_time = self.switch_time()
        if self._current_mode is not None:
            # During reconfiguration the old design keeps running (and
            # burning power) in the current mode.
            self.energy += cost_time * self.deployed.mode_power(
                self._current_mode
            )
        previous = self.deployed.name
        self.deployed = record
        self.swaps += 1
        REGISTRY.inc("adapt_swaps")
        self.decisions.append(
            AdaptationDecision(
                time=self.now,
                kind="swap",
                design=record.name,
                regret=regret,
                distance=distance,
                reason=reason,
            )
        )
        self._emit(
            "adapt_swap",
            time=self.now,
            previous=previous,
            design=record.name,
            switch_time=cost_time,
            reason=reason,
        )

    def _maybe_resynthesize(
        self,
        psi_hat: Mapping[str, float],
        best_score: float,
        regret: float,
        distance: float,
    ) -> None:
        if self.resyntheses >= self.config.max_resyntheses:
            return
        lower = self.library.lower_bound(psi_hat)
        span_regret = (
            (best_score - lower) / lower if lower > 0 else 0.0
        )
        novelty = min(
            psi_distance(record.psi, psi_hat)
            for record in self.library.records
        )
        if (
            span_regret <= self.config.resynthesis_regret
            and novelty <= self.config.resynthesis_novelty
        ):
            return
        self._emit(
            "adapt_resynthesis",
            time=self.now,
            span_regret=span_regret,
            novelty=novelty,
            psi=dict(psi_hat),
        )
        record = self.resynthesize(psi_hat)
        if (
            record.feasible
            and record.score(psi_hat) < self.deployed.score(psi_hat)
        ):
            self._swap(record, regret, distance, "resynthesis")

    def resynthesize(
        self, psi_hat: Mapping[str, float]
    ) -> DesignRecord:
        """Warm-started GA run at the estimated Ψ; admits the result."""
        self.resyntheses += 1
        REGISTRY.inc("adapt_resyntheses")
        target = self.problem.with_probabilities(dict(psi_hat))
        seeds: List[Tuple[str, ...]] = [self.deployed.genes]
        for record in self.library.nearest(
            psi_hat, self.config.seed_designs
        ):
            if record.genes not in seeds:
                seeds.append(record.genes)
        # Deterministic per-launch RNG: decisions stay bit-reproducible
        # under a fixed config seed however Ψ̂ evolved.
        rng = random.Random(
            self.config.seed * 1000003 + self.resyntheses
        )
        synthesis_config = self.config.synthesis
        if self.jobs is not None and self.jobs != synthesis_config.jobs:
            synthesis_config = dataclasses.replace(
                synthesis_config, jobs=self.jobs
            )
        state = warm_state(target, synthesis_config, seeds, rng)
        synthesizer = MultiModeSynthesizer(target, synthesis_config)
        result = synthesizer.run(resume=state)
        record = DesignRecord.from_result(
            f"resynth-{self.resyntheses}", result, origin="resynthesis"
        )
        self.library.add(record)
        self.decisions.append(
            AdaptationDecision(
                time=self.now,
                kind="resynthesis",
                design=record.name,
                regret=0.0,
                distance=psi_distance(record.psi, psi_hat),
                reason="library_stale",
            )
        )
        self._emit(
            "adapt_admitted",
            time=self.now,
            design=record.name,
            feasible=record.feasible,
            power=record.score(psi_hat),
            generations=result.generations,
        )
        return record
