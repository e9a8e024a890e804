"""Differential fuzz: the evaluation pool with early dispatch vs serial.

Randomised GA chains on suite, smartphone and stress instances must
produce *exactly* equal results at ``jobs=2`` — where the pool also
starts each predicted next generation during breeding — and serially:
history, best fitness, best genome, evaluation and generation counts,
power, the per-mode phase-bucket invariant (buckets sum to the
aggregates), the Pareto sweep, and a checkpointed run resumed from
JSON.

The configs are drawn once per instance from a seeded RNG and shared
verbatim across the arms (only ``jobs`` differs), so any divergence is
the pool's fault, never the sampler's.  A ``jobs=2`` run whose pool
cannot be created speculates nothing and reproduces the serial run.
The corpus keeps ``convergence_generations`` above
``max_generations``, so every run reaches the generation limit and the
predictor — an exact replay of the breeding stages on a cloned RNG —
must see every early dispatch adopted (hits == issued, zero discards).
"""

import json
import random

import pytest

from repro.benchgen.multimode import MultiModeSpec, generate_problem
from repro.benchgen.smartphone import smartphone_problem
from repro.benchgen.suite import suite_problem
from repro.engine import backend as backend_module
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer
from repro.synthesis.pareto import area_power_tradeoff
from repro.synthesis.state import GAState


def _stress_mini():
    """A denser-than-suite instance for the stress tier of the fuzz.

    Scaled down from the registry's ``stress1`` (whose 200+-task modes
    are sized for per-call kernel benches, not whole GA runs) to fit
    the differential budget while still out-sizing mul1–mul8.
    """
    return generate_problem(
        MultiModeSpec(
            name="stress-mini",
            seed=777,
            mode_tasks=(18, 22, 16),
            pe_count=4,
            cl_count=2,
        )
    )


#: (instance loader, DVS method) fuzz corpus.  GRADIENT exercises the
#: full inner loop on the small suite instances; the larger graphs run
#: NONE to keep the differential affordable.
CORPUS = [
    ("mul1", lambda: suite_problem("mul1"), DvsMethod.GRADIENT),
    ("mul3", lambda: suite_problem("mul3"), DvsMethod.GRADIENT),
    ("smartphone", smartphone_problem, DvsMethod.NONE),
    ("stress-mini", _stress_mini, DvsMethod.NONE),
]


def _draw_config(name: str, dvs: DvsMethod) -> SynthesisConfig:
    rng = random.Random(f"speculative-fuzz:{name}")
    return SynthesisConfig(
        dvs=dvs,
        seed=rng.randrange(10_000),
        population_size=rng.choice([10, 12, 14]),
        max_generations=rng.choice([3, 4]),
        convergence_generations=10,
        local_search_budget_factor=rng.choice([0.0, 0.5]),
        group_mutation_rate=rng.choice([0.1, 0.3]),
        shutdown_mutation_rate=rng.choice([0.0, 0.02]),
    )


def _assert_bucket_invariant(perf) -> None:
    assert perf is not None
    assert set(perf.mode_phase_seconds) == set(perf.phase_seconds)
    for phase, total in perf.phase_seconds.items():
        assert sum(
            perf.mode_phase_seconds[phase].values()
        ) == pytest.approx(total)
        assert sum(
            perf.mode_phase_calls[phase].values()
        ) == perf.phase_calls[phase]


def _assert_all_adopted(perf) -> None:
    assert perf.speculation_issued > 0
    assert perf.speculation_hits == perf.speculation_issued
    assert perf.speculation_discards == 0
    assert perf.speculation_hit_rate == 1.0


@pytest.mark.parametrize(
    "name,loader,dvs", CORPUS, ids=[entry[0] for entry in CORPUS]
)
def test_speculative_chains_identical(name, loader, dvs):
    base = _draw_config(name, dvs)
    # A fresh problem per arm: no shared decode context or warm mode
    # cache can paper over a divergence between the arms.
    serial = MultiModeSynthesizer(loader(), base.with_updates(jobs=1)).run()
    pooled = MultiModeSynthesizer(loader(), base.with_updates(jobs=2)).run()
    assert pooled.history == serial.history
    assert pooled.best.metrics.fitness == serial.best.metrics.fitness
    assert pooled.best.mapping.genes == serial.best.mapping.genes
    assert pooled.evaluations == serial.evaluations
    assert pooled.generations == serial.generations
    assert pooled.average_power == serial.average_power
    for result in (serial, pooled):
        _assert_bucket_invariant(result.perf)
    assert serial.perf.speculation_issued == 0
    _assert_all_adopted(pooled.perf)


def test_pareto_sets_identical():
    config = SynthesisConfig(
        population_size=10,
        max_generations=3,
        convergence_generations=10,
        local_search_budget_factor=0.0,
        seed=13,
    )
    points = {
        jobs: area_power_tradeoff(
            suite_problem("mul1"),
            scales=(0.75, 1.25),
            config=config.with_updates(jobs=jobs),
            runs=1,
            base_seed=3,
        )
        for jobs in (1, 2)
    }
    assert points[1] == points[2]


def test_speculate_phase_counts_parent_prediction_only():
    # One prediction per generation but the last, timed in the parent;
    # the workers' evaluations of the predicted batch are not in it.
    config = SynthesisConfig(
        dvs=DvsMethod.GRADIENT,
        population_size=12,
        max_generations=6,
        convergence_generations=10,
        local_search_budget_factor=0.0,
        seed=5,
        jobs=2,
    )
    result = MultiModeSynthesizer(suite_problem("mul1"), config).run()
    perf = result.perf
    _assert_all_adopted(perf)
    assert 0 < perf.phase_calls["speculate"] <= result.generations
    assert perf.phase_seconds["speculate"] < perf.wall_time


def test_speculation_inert_without_async_pool(monkeypatch):
    # A jobs=2 run whose pool cannot be created (a platform without
    # working multiprocessing) degrades to in-process evaluation: there
    # is nothing to dispatch early on, so it reports zero speculation
    # activity and reproduces the serial run exactly.
    config = SynthesisConfig(
        population_size=10,
        max_generations=3,
        convergence_generations=10,
        local_search_budget_factor=0.0,
        seed=7,
    )
    serial = MultiModeSynthesizer(suite_problem("mul1"), config).run()

    def no_pool(*args, **kwargs):
        raise OSError("no process pool on this platform")

    monkeypatch.setattr(backend_module.multiprocessing, "Pool", no_pool)
    with pytest.warns(RuntimeWarning, match="in-process"):
        poolless = MultiModeSynthesizer(
            suite_problem("mul1"), config.with_updates(jobs=2)
        ).run()
    assert poolless.perf.pool_fallbacks == 1
    assert poolless.perf.pool_workers == 0
    assert poolless.history == serial.history
    assert poolless.best.mapping.genes == serial.best.mapping.genes
    for result in (serial, poolless):
        assert result.perf.speculation_issued == 0
        assert result.perf.speculation_hits == 0
        assert result.perf.speculation_discards == 0
        assert result.perf.speculation_hit_rate == 0.0


def test_kill_resume_bit_identical_with_speculation():
    problem = suite_problem("mul1")
    config = SynthesisConfig(
        population_size=10,
        max_generations=6,
        convergence_generations=8,
        local_search_budget_factor=0.0,
        seed=31,
        jobs=2,
    )
    snapshots = []
    reference = MultiModeSynthesizer(problem, config).run(
        on_generation=snapshots.append
    )
    assert snapshots, "run emitted no generation snapshots"
    # Serialise through JSON exactly like the checkpoint store: this is
    # the state a killed campaign job restarts from.  Speculation state
    # is deliberately not part of the snapshot — a resumed run simply
    # starts predicting again from the restored RNG state.
    state = GAState.from_dict(
        json.loads(json.dumps(snapshots[len(snapshots) // 2].to_dict()))
    )
    resumed = MultiModeSynthesizer(problem, config).run(resume=state)
    assert resumed.history == reference.history
    assert resumed.best.mapping.genes == reference.best.mapping.genes
    assert resumed.average_power == reference.average_power
    assert resumed.generations == reference.generations
    # The resumed half re-predicts and every dispatch is adopted.
    _assert_all_adopted(resumed.perf)
