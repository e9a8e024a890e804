"""Differential fuzz oracle: incremental pipeline vs the seed evaluator.

For each benchmark instance, random mutation chains (gene mutation,
two-point crossover between two lineages, targeted single-gene edits)
drive the incremental pipeline through a warm, steadily churning
mode-result cache — and every single candidate is re-evaluated through
the frozen seed evaluator (:mod:`tests.oracles.seed_evaluator`: no
decode context, no cache, the seed PV-DVS) and compared bit-for-bit:
fitness, per-mode dynamic/static power, violation summaries, and the
full task/communication schedules.  Every candidate is checked under
all three DVS methods, sharing one cache small enough to keep evicting,
so the config fingerprint's isolation is exercised too.  Any divergence
— a stale cache entry, an imprecise core signature, a float
reassociation — fails with the step number that produced it.

Part of the tier-1 suite, hence of ``make verify``.
"""

import random

import pytest

from repro.benchgen.smartphone import smartphone_problem
from repro.benchgen.suite import suite_problem
from repro.eval.cache import ModeResultCache
from repro.mapping.encoding import MappingString
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.evaluator import evaluate_mapping

from tests.oracles import seed_evaluator

#: (instance, chain steps, per-gene mutation rate) — ≥200 fuzzed
#: candidates per instance: three tgff-style suite instances plus the
#: smartphone case study.  mul7 is the one with DVS hardware on shared
#: rails (ASIC1 and ASIC3), so its candidates take the Fig. 5
#: segment-chain path of voltage selection and scoring.
INSTANCES = [
    ("mul1", 200, 0.08),
    ("mul3", 200, 0.06),
    ("mul7", 200, 0.06),
    ("smartphone", 200, 0.04),
]


def _problem(name):
    if name == "smartphone":
        return smartphone_problem()
    return suite_problem(name)


def _snapshot(implementation):
    """Everything observable about one evaluation, bit-exact."""
    if implementation is None:
        return None
    metrics = implementation.metrics
    out = [
        metrics.fitness,
        metrics.average_power,
        metrics.dynamic_power,
        metrics.static_power,
        metrics.timing_violation,
        metrics.area_violation,
        metrics.transition_violation,
    ]
    for mode_name in sorted(implementation.schedules):
        schedule = implementation.schedules[mode_name]
        out.append(
            tuple(
                tuple(sorted(vars(task).items()))
                for task in schedule.tasks
            )
        )
        out.append(
            tuple(
                tuple(sorted(vars(comm).items()))
                for comm in schedule.comms
            )
        )
    return out


@pytest.mark.parametrize(
    "name,steps,rate", INSTANCES, ids=[entry[0] for entry in INSTANCES]
)
def test_mutation_chain_bit_identical_to_legacy(name, steps, rate):
    problem = _problem(name)
    rng = random.Random(20030310)
    configs = [SynthesisConfig(dvs=method) for method in DvsMethod]
    cache = ModeResultCache(512)

    genome = MappingString.random(problem, rng)
    partner = MappingString.random(problem, rng)
    for step in range(steps):
        for config in configs:
            fast = _snapshot(
                evaluate_mapping(problem, genome, config, cache=cache)
            )
            oracle = _snapshot(
                seed_evaluator.evaluate_mapping(problem, genome, config)
            )
            assert fast == oracle, (
                f"{name}/{config.dvs.value}: incremental result diverged "
                f"from the seed evaluator at chain step {step}"
            )
        # Advance both lineages; mix operators so prep *and* schedule
        # segments see hits, single-mode dirt and cross-mode dirt.
        roll = rng.random()
        if roll < 0.6:
            genome = genome.mutate(rng, rate)
        elif roll < 0.85:
            genome, partner = genome.crossover_two_point(partner, rng)
        else:
            index = rng.randrange(len(genome))
            candidates = genome.candidates_at(index)
            genome = genome.with_gene(index, rng.choice(candidates))
