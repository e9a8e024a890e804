"""Differential fuzz: asynchronous early dispatch vs a plain barrier vs serial.

At ``jobs=2`` the pool is asynchronous twice over: ``submit`` only
starts the workers' chunks (``map_async``), and during breeding the
driver already dispatches the predicted next generation.  Randomised GA
chains on suite, smartphone and stress instances must produce *exactly*
equal results in three arms:

* ``serial`` — ``jobs=1``, no pool;
* ``async`` — ``jobs=2``, every early dispatch adopted by the batch
  that follows it;
* ``barrier`` — ``jobs=2`` with every prediction wrong, so each early
  dispatch is collected and discarded and each generation is evaluated
  by a fresh dispatch behind the ``drain`` barrier.

Fitness, history, best genome, evaluation counts, the Pareto sweep and
the per-mode phase-bucket invariant (buckets sum to the aggregates)
must agree, and a checkpoint written by either evaluation path must
resume bit-identically on the other.

The configs are drawn once per instance from a seeded RNG and shared
verbatim across the arms (only ``jobs`` and the predictor differ), so
any divergence is the pool's fault, never the sampler's.
"""

import json
import random

import pytest

from repro.benchgen.multimode import MultiModeSpec, generate_problem
from repro.benchgen.smartphone import smartphone_problem
from repro.benchgen.suite import suite_problem
from repro.synthesis import speculation
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
    rng = random.Random(f"async-fuzz:{name}")
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


@pytest.fixture
def mispredict(monkeypatch):
    """Make every prediction miss: the exact next batch, reversed.

    The driver submits the deduplicated batch in first-occurrence
    order; any early dispatch of two or more genomes in reverse order
    is a different gene-tuple list, so the pool must discard it.
    """
    predict = speculation.predict_next_batch

    def reversed_prediction(*args):
        return list(reversed(list(dict.fromkeys(predict(*args)))))

    def install():
        monkeypatch.setattr(
            speculation, "predict_next_batch", reversed_prediction
        )

    return install


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


@pytest.mark.parametrize(
    "name,loader,dvs", CORPUS, ids=[entry[0] for entry in CORPUS]
)
def test_async_barrier_serial_chains_identical(name, loader, dvs, mispredict):
    base = _draw_config(name, dvs)
    results = {}
    # A fresh problem per arm: no shared decode context or warm mode
    # cache can paper over a divergence between the arms.
    results["serial"] = MultiModeSynthesizer(
        loader(), base.with_updates(jobs=1)
    ).run()
    results["async"] = MultiModeSynthesizer(
        loader(), base.with_updates(jobs=2)
    ).run()
    mispredict()
    results["barrier"] = MultiModeSynthesizer(
        loader(), base.with_updates(jobs=2)
    ).run()
    serial = results["serial"]
    for arm in ("async", "barrier"):
        result = results[arm]
        assert result.history == serial.history, arm
        assert (
            result.best.metrics.fitness == serial.best.metrics.fitness
        ), arm
        assert (
            result.best.mapping.genes == serial.best.mapping.genes
        ), arm
        assert result.evaluations == serial.evaluations, arm
        assert result.generations == serial.generations, arm
        assert result.average_power == serial.average_power, arm
    for arm, result in results.items():
        _assert_bucket_invariant(result.perf)
    adopted = results["async"].perf
    assert adopted.speculation_issued > 0
    assert adopted.speculation_hits == adopted.speculation_issued
    discarded = results["barrier"].perf
    assert discarded.speculation_issued > 0
    assert discarded.speculation_hits == 0
    assert discarded.speculation_discards == discarded.speculation_issued


def test_async_and_barrier_pareto_sets_identical(mispredict):
    config = SynthesisConfig(
        population_size=10,
        max_generations=3,
        convergence_generations=10,
        local_search_budget_factor=0.0,
        seed=13,
        jobs=2,
    )

    def sweep():
        return area_power_tradeoff(
            suite_problem("mul1"),
            scales=(0.75, 1.25),
            config=config,
            runs=1,
            base_seed=3,
        )

    adopted = sweep()
    mispredict()
    assert sweep() == adopted


def test_kill_resume_bit_identical_with_async_pool():
    # A checkpoint carries no trace of how its generations were
    # evaluated: a snapshot written by a serial run resumes on the pool,
    # and one written on the pool resumes serially, both bit-identical
    # to the uninterrupted run.
    problem = suite_problem("mul1")
    config = SynthesisConfig(
        population_size=10,
        max_generations=6,
        convergence_generations=8,
        local_search_budget_factor=0.0,
        seed=31,
    )
    references = {}
    middles = {}
    for jobs in (1, 2):
        snapshots = []
        references[jobs] = MultiModeSynthesizer(
            problem, config.with_updates(jobs=jobs)
        ).run(on_generation=snapshots.append)
        assert snapshots, "run emitted no generation snapshots"
        # Serialise through JSON exactly like the checkpoint store: this
        # is the state a killed campaign job restarts from.
        middles[jobs] = GAState.from_dict(
            json.loads(json.dumps(snapshots[len(snapshots) // 2].to_dict()))
        )
    reference = references[1]
    assert references[2].history == reference.history
    for written, resumed_jobs in ((1, 2), (2, 1)):
        resumed = MultiModeSynthesizer(
            problem, config.with_updates(jobs=resumed_jobs)
        ).run(resume=middles[written])
        assert resumed.history == reference.history, written
        assert (
            resumed.best.mapping.genes == reference.best.mapping.genes
        ), written
        assert resumed.average_power == reference.average_power, written
        assert resumed.generations == reference.generations, written
