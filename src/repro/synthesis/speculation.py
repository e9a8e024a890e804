"""Next-generation prediction for speculative evaluation.

While pool workers evaluate generation *g*, the parent runs selection,
crossover and the improvement mutations for generation *g + 1* — and
during *that* window the workers idle.  Speculative evaluation fills
the window by predicting the next population and dispatching it early.

The predictor exploits a structural property of the generation loop:
every stage downstream of evaluation (:func:`~repro.synthesis.
operators.breed_next`, :func:`~repro.synthesis.improvements.
update_stalls`, :func:`~repro.synthesis.improvements.
apply_improvements`) is a pure function of the evaluated records, the
current population and the RNG — and the next iteration's convergence
and restart decisions happen only *after* its evaluation.  So once a
generation's records have landed, cloning the RNG state (a *split
generator*: same seeded stream, zero draws consumed from the live one)
and replaying those stages yields **exactly** the population the driver
is about to breed.  Prediction accuracy is 1.0 by construction, and
determinism is untouched: the backend adopts an early dispatch only for
an identical gene-tuple list, and evaluation is a pure function of the
genome, so adopting one is indistinguishable from dispatching on demand.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.engine.records import EvalRecord
from repro.mapping.encoding import MappingString
from repro.synthesis import improvements, operators
from repro.synthesis.config import SynthesisConfig


def predict_next_batch(
    config: SynthesisConfig,
    mutation_rate: float,
    population: Sequence[MappingString],
    records: Sequence[EvalRecord],
    rng_state: Tuple[object, ...],
    area_stall: int,
    timing_stall: int,
    transition_stall: int,
    best_genome: MappingString,
) -> List[MappingString]:
    """Replay the breeding pipeline on a cloned RNG: the exact next batch.

    ``rng_state`` is the live generator's state *before* the driver
    breeds; the replay consumes draws only from the clone.  The breeding
    stages record no metrics, so the replay counts nothing the real
    pass, which follows immediately, counts again.
    """
    rng = random.Random()
    rng.setstate(rng_state)
    predicted = operators.breed_next(
        config, mutation_rate, population, records, rng
    )
    stalls = improvements.update_stalls(
        records, area_stall, timing_stall, transition_stall
    )
    return improvements.apply_improvements(
        config, predicted, records, rng, *stalls, best_genome
    )

