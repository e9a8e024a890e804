"""End-to-end engine guarantees: parallel determinism and dedup.

The headline contract of the evaluation engine is that *nothing about
how* candidates are evaluated — in-process, cached, deduplicated or
dispatched to a pool — may change *what* the GA computes.  A synthesis
run is a pure function of (problem, config-minus-jobs, seed).
"""

import random


from repro.benchgen.suite import suite_problem
from repro.engine.backend import SerialBackend
from repro.mapping.encoding import MappingString
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import synthesize
from repro.synthesis.driver import GenerationDriver

from tests.conftest import make_two_mode_problem
from tests.oracles import seed_path


def _small_config(**overrides):
    base = dict(
        dvs=DvsMethod.GRADIENT,
        seed=9,
        population_size=14,
        max_generations=10,
        convergence_generations=5,
        local_search_budget_factor=0.5,
    )
    base.update(overrides)
    return SynthesisConfig(**base)


class TestParallelDeterminism:
    def test_serial_and_pooled_runs_identical(self):
        problem = suite_problem("mul1")
        serial = synthesize(problem, _small_config(jobs=1))
        pooled = synthesize(problem, _small_config(jobs=2))
        assert serial.history == pooled.history
        assert (
            serial.best.metrics.fitness == pooled.best.metrics.fitness
        )
        assert serial.best.mapping.genes == pooled.best.mapping.genes
        assert serial.evaluations == pooled.evaluations
        assert serial.generations == pooled.generations

    def test_decode_cache_off_still_identical(self):
        # The whole run under the seed evaluator (no decode context, no
        # mode cache, seed PV-DVS) must retrace the default path.
        problem = make_two_mode_problem()
        fast = synthesize(problem, _small_config(jobs=1))
        with seed_path():
            legacy = synthesize(
                make_two_mode_problem(), _small_config(jobs=1)
            )
        assert fast.history == legacy.history
        assert fast.best.metrics.fitness == legacy.best.metrics.fitness

    def test_perf_stats_populated(self):
        problem = make_two_mode_problem()
        result = synthesize(problem, _small_config(jobs=1))
        perf = result.perf
        assert perf is not None
        assert perf.evaluations == result.evaluations
        assert perf.wall_time > 0.0
        assert perf.jobs == 1
        assert perf.evaluations_per_second > 0.0
        # Every evaluator phase must have been timed.
        for phase in ("mobility", "cores", "schedule", "dvs", "power"):
            assert perf.phase_seconds.get(phase, 0.0) > 0.0
            assert perf.phase_calls.get(phase, 0) > 0

    def test_pooled_perf_reports_pool_activity(self):
        problem = make_two_mode_problem()
        result = synthesize(problem, _small_config(jobs=2))
        perf = result.perf
        assert perf is not None
        assert perf.jobs == 2
        if perf.parallel_evaluations:
            assert perf.batches > 0
            assert perf.pool_busy_seconds > 0.0
            assert perf.pool_utilisation > 0.0


class TestDeduplication:
    def test_duplicate_slots_collapse_to_one_evaluation(self):
        problem = make_two_mode_problem()
        config = SynthesisConfig(jobs=1)
        driver = GenerationDriver(problem, config)
        rng = random.Random(2)
        unique = [MappingString.random(problem, rng) for _ in range(4)]
        population = unique + [unique[0], unique[2], unique[2]]

        records = driver.evaluate_population(
            population, SerialBackend(problem, config)
        )

        assert len(records) == len(population)
        assert driver.evaluations == len(unique)
        assert driver.dedup_hits == len(population) - len(unique)
        # Duplicate slots received the same cached record.
        assert records[4] == records[0]
        assert records[5] == records[2] == records[6]

    def test_cache_hits_across_generations(self):
        problem = make_two_mode_problem()
        config = SynthesisConfig(jobs=1)
        driver = GenerationDriver(problem, config)
        backend = SerialBackend(problem, config)
        rng = random.Random(3)
        population = [
            MappingString.random(problem, rng) for _ in range(5)
        ]
        driver.evaluate_population(population, backend)
        evaluations_after_first = driver.evaluations

        driver.evaluate_population(population, backend)
        assert driver.evaluations == evaluations_after_first
        assert driver.cache_hits >= len(population)
