"""The generic genetic-algorithm machinery of the outer loop.

Implements the GA building blocks the paper names in Fig. 4: linear
scaling of ranked fitness (line 15), tournament selection of mating
individuals (line 16), two-point crossover (line 17) and offspring
insertion with elitism (line 18).  Fitness is *minimised*; linear
scaling converts ranks into selection weights with a configurable
pressure, so the GA behaves identically across the very different
power magnitudes of the benchmark set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.mapping.encoding import MappingString


@dataclass
class RankedIndividual:
    """A genome with its fitness and linear-scaled selection weight."""

    genome: MappingString
    fitness: float
    weight: float = 0.0


def rank_population(
    population: Sequence[Tuple[MappingString, float]],
    selection_pressure: float,
) -> List[RankedIndividual]:
    """Sort by fitness (ascending = best first) and assign linear weights.

    With ``N`` individuals and pressure ``SP`` ∈ [1, 2], the best
    individual receives weight ``SP`` and the worst ``2 − SP``; weights
    interpolate linearly in between (Baker's linear ranking).
    """
    ordered = sorted(population, key=lambda item: item[1])
    count = len(ordered)
    ranked: List[RankedIndividual] = []
    for position, (genome, fitness) in enumerate(ordered):
        if count > 1:
            weight = selection_pressure - (
                2.0 * (selection_pressure - 1.0) * position / (count - 1)
            )
        else:
            weight = 1.0
        ranked.append(
            RankedIndividual(genome=genome, fitness=fitness, weight=weight)
        )
    return ranked


def tournament_select(
    ranked: Sequence[RankedIndividual],
    rng: random.Random,
    tournament_size: int,
) -> RankedIndividual:
    """Pick the highest-weight individual among ``tournament_size`` draws."""
    best: Optional[RankedIndividual] = None
    for _ in range(max(1, tournament_size)):
        contender = ranked[rng.randrange(len(ranked))]
        if best is None or contender.weight > best.weight:
            best = contender
    return best


def select_mating_pool(
    ranked: Sequence[RankedIndividual],
    rng: random.Random,
    tournament_size: int,
    pool_size: int,
) -> List[MappingString]:
    """Tournament-select ``pool_size`` parents (with replacement)."""
    return [
        tournament_select(ranked, rng, tournament_size).genome
        for _ in range(pool_size)
    ]


def breed(
    parents: Sequence[MappingString],
    rng: random.Random,
    crossover_rate: float,
    per_gene_mutation_rate: float,
) -> List[MappingString]:
    """Pair parents, apply two-point crossover and gene mutation."""
    offspring: List[MappingString] = []
    for first, second in zip(parents[0::2], parents[1::2]):
        if rng.random() < crossover_rate:
            child_a, child_b = first.crossover_two_point(second, rng)
        else:
            child_a, child_b = first, second
        offspring.append(child_a.mutate(rng, per_gene_mutation_rate))
        offspring.append(child_b.mutate(rng, per_gene_mutation_rate))
    if len(parents) % 2 == 1:
        offspring.append(parents[-1].mutate(rng, per_gene_mutation_rate))
    return offspring


def insert_offspring(
    ranked: Sequence[RankedIndividual],
    offspring: Sequence[MappingString],
    elite_count: int,
    population_size: int,
) -> List[MappingString]:
    """Next generation: elites, then offspring, topped up by survivors."""
    next_generation: List[MappingString] = [
        individual.genome for individual in ranked[:elite_count]
    ]
    for genome in offspring:
        if len(next_generation) >= population_size:
            break
        next_generation.append(genome)
    survivor_index = elite_count
    while (
        len(next_generation) < population_size
        and survivor_index < len(ranked)
    ):
        next_generation.append(ranked[survivor_index].genome)
        survivor_index += 1
    return next_generation


def population_diversity(population: Sequence[MappingString]) -> float:
    """Fraction of distinct genomes in the population (0..1]."""
    if not population:
        return 0.0
    return len(set(population)) / len(population)
