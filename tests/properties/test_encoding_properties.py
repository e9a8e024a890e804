"""Property-based tests for the genome encoding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import registry
from repro.mapping.encoding import MappingString

from tests.conftest import make_two_mode_problem

PROBLEM = make_two_mode_problem()

_REGISTRY_PROBLEMS = {}


def _registry_problem(name):
    if name not in _REGISTRY_PROBLEMS:
        _REGISTRY_PROBLEMS[name] = registry.get(name)
    return _REGISTRY_PROBLEMS[name]


@st.composite
def genomes(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return MappingString.random(PROBLEM, random.Random(seed))


class TestGenomeProperties:
    @given(genomes())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_through_mapping_dict(self, genome):
        rebuilt = MappingString.from_mapping(
            PROBLEM, genome.full_mapping()
        )
        assert rebuilt == genome

    @given(genomes(), genomes(), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_crossover_children_valid_and_complementary(
        self, parent_a, parent_b, seed
    ):
        rng = random.Random(seed)
        child_a, child_b = parent_a.crossover_two_point(parent_b, rng)
        for index in range(len(parent_a)):
            parents = {parent_a.genes[index], parent_b.genes[index]}
            children = {child_a.genes[index], child_b.genes[index]}
            assert children == parents

    @given(
        genomes(),
        st.integers(0, 2**32 - 1),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_mutation_preserves_validity(self, genome, seed, rate):
        mutated = genome.mutate(random.Random(seed), rate)
        # Mutation skips the per-gene check; the constructor's passes.
        assert MappingString(PROBLEM, mutated.genes) == mutated

    @given(genomes())
    @settings(max_examples=30, deadline=None)
    def test_pe_of_agrees_with_mode_mapping(self, genome):
        for mode in PROBLEM.omsm.modes:
            mapping = genome.mode_mapping(mode.name)
            for task, pe in mapping.items():
                assert genome.pe_of(mode.name, task) == pe

    @given(genomes(), genomes())
    @settings(max_examples=30, deadline=None)
    def test_equality_iff_same_genes(self, a, b):
        assert (a == b) == (a.genes == b.genes)
        if a == b:
            assert hash(a) == hash(b)


class TestOperatorChainsStayValid:
    """Operator children skip the per-gene check the constructor runs.

    Every child gene is a parent's gene or a pick from that gene's own
    candidates, so random chains of mutation, crossover and gene edits
    on every registry instance must always pass full validation, and
    the gene-position helpers must agree with the layout.
    """

    @pytest.mark.parametrize("name", registry.names())
    @given(
        seed=st.integers(0, 2**32 - 1),
        rate=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=8, deadline=None)
    def test_mutate_crossover_chains(self, name, seed, rate):
        problem = _registry_problem(name)
        rng = random.Random(seed)
        population = [
            MappingString.random(problem, rng),
            MappingString.random_software_biased(problem, rng),
        ]
        for _ in range(12):
            first, second = rng.sample(population, 2)
            child_a, child_b = first.crossover_two_point(second, rng)
            index = rng.randrange(len(child_b))
            edited = child_b.with_gene(
                index, rng.choice(child_b.candidates_at(index))
            )
            population += [child_a.mutate(rng, rate), edited]
        for genome in population:
            assert MappingString(problem, genome.genes) == genome
            assert hash(genome) == hash(genome.genes)

    @pytest.mark.parametrize("name", registry.names())
    def test_gene_positions_follow_the_layout(self, name):
        problem = _registry_problem(name)
        genome = MappingString.random(problem, random.Random(1))
        index = 0
        for mode in problem.omsm.modes:
            for task, _ in problem.gene_space(mode.name):
                assert genome.gene_index(mode.name, task) == index
                assert genome.pe_of(mode.name, task) == genome.genes[index]
                index += 1
        assert index == len(genome)
