"""The multi-mode co-synthesis entry point (paper Fig. 4, complete loop).

:class:`MultiModeSynthesizer` is the stable façade over the generation
pipeline: it builds the
:class:`~repro.engine.backend.EvaluationBackend` a configuration asks
for, hands it to the :class:`~repro.synthesis.driver.GenerationDriver`,
and owns the backend's lifecycle (graceful close on success, hard
terminate on any error or interrupt).  The GA itself — random initial
population, per-candidate evaluation (mobilities → cores → per-mode
scheduling → optional DVS → fitness), linear-scaling ranking,
tournament selection, two-point crossover, offspring insertion with
elitism, the four improvement mutations, speculation, and the
local-search polish — lives in the stage modules
(:mod:`repro.synthesis.operators`, :mod:`repro.synthesis.improvements`,
:mod:`repro.synthesis.speculation`) composed by the driver.  The run
terminates on convergence (no improvement of the best fitness for a
configured number of generations) or at the generation limit.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.engine.backend import backend_for
from repro.problem import Problem
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.driver import GenerationDriver, SynthesisResult
from repro.synthesis.state import GAState

__all__ = [
    "MultiModeSynthesizer",
    "SynthesisResult",
    "synthesize",
]


class MultiModeSynthesizer:
    """GA-based co-synthesis of one multi-mode problem instance."""

    def __init__(self, problem: Problem, config: SynthesisConfig) -> None:
        self.problem = problem
        self.config = config
        self._driver = GenerationDriver(problem, config)

    def run(
        self,
        resume: Optional[GAState] = None,
        on_generation: Optional[Callable[[GAState], None]] = None,
    ) -> SynthesisResult:
        """Execute the GA and return the best implementation found.

        With ``config.jobs > 1`` a pooled backend (and its process
        pool) lives for the duration of the run; evaluation results
        are bit-identical to the serial path either way.

        ``resume`` continues a previous run from a
        :class:`~repro.synthesis.state.GAState` snapshot —
        bit-identically, because the snapshot carries the RNG state and
        the full population.  ``on_generation`` is called with a fresh
        snapshot after every completed generation; a checkpointing
        runtime persists (some of) these snapshots to disk.
        """
        backend = backend_for(self.problem, self.config)
        try:
            result = self._driver.run(backend, resume, on_generation)
        except BaseException:
            # Ctrl-C (or any error) can leave queued pool tasks whose
            # feeder thread died with the interrupt; a graceful
            # close()+join() would then wait forever for worker
            # sentinels that never arrive.  Hard-stop instead.
            backend.terminate()
            raise
        backend.close()
        return result


def synthesize(
    problem: Problem, config: Optional[SynthesisConfig] = None
) -> SynthesisResult:
    """One-call co-synthesis with default (or given) configuration."""
    if config is None:
        config = SynthesisConfig()
    return MultiModeSynthesizer(problem, config).run()
