"""Unit tests for the multi-mode mapping string (GA genome)."""

import random

import pytest

from repro.errors import MappingError
from repro.mapping.encoding import MappingString


class TestConstruction:
    def test_random_is_valid(self, two_mode_problem, rng):
        genome = MappingString.random(two_mode_problem, rng)
        assert len(genome) == two_mode_problem.genome_length()
        for gene in genome:
            assert gene in ("PE0", "PE1")

    def test_wrong_length_rejected(self, two_mode_problem):
        with pytest.raises(MappingError, match="length"):
            MappingString(two_mode_problem, ["PE0"])

    def test_invalid_candidate_rejected(self, two_mode_problem):
        genes = ["PE0"] * two_mode_problem.genome_length()
        genes[0] = "GHOST"
        with pytest.raises(MappingError):
            MappingString(two_mode_problem, genes)

    def test_from_mapping_roundtrip(self, two_mode_problem, rng):
        genome = MappingString.random(two_mode_problem, rng)
        rebuilt = MappingString.from_mapping(
            two_mode_problem, genome.full_mapping()
        )
        assert rebuilt == genome

    def test_from_mapping_missing_task(self, two_mode_problem):
        with pytest.raises(MappingError, match="misses"):
            MappingString.from_mapping(
                two_mode_problem, {"O1": {}, "O2": {}}
            )


class TestViews:
    def test_mode_mapping(self, two_mode_problem):
        genes = ["PE0", "PE1", "PE0", "PE1", "PE0", "PE1", "PE0"]
        genome = MappingString(two_mode_problem, genes)
        assert genome.mode_mapping("O1") == {
            "t1": "PE0",
            "t2": "PE1",
            "t3": "PE0",
            "t4": "PE1",
        }
        assert genome.mode_mapping("O2") == {
            "u1": "PE0",
            "u2": "PE1",
            "u3": "PE0",
        }

    def test_pe_of(self, two_mode_problem):
        genes = ["PE0", "PE1", "PE0", "PE1", "PE0", "PE1", "PE0"]
        genome = MappingString(two_mode_problem, genes)
        assert genome.pe_of("O1", "t2") == "PE1"
        assert genome.pe_of("O2", "u1") == "PE0"
        with pytest.raises(MappingError):
            genome.pe_of("O1", "ghost")
        with pytest.raises(MappingError):
            genome.pe_of("ghost", "t1")

    def test_gene_index(self, two_mode_problem):
        genes = ["PE0"] * 7
        genome = MappingString(two_mode_problem, genes)
        assert genome.gene_index("O1", "t1") == 0
        assert genome.gene_index("O1", "t4") == 3
        assert genome.gene_index("O2", "u1") == 4

    def test_unknown_mode_and_task_name_the_culprit(self, two_mode_problem):
        genome = MappingString(two_mode_problem, ["PE0"] * 7)
        for lookup in (genome.gene_index, genome.pe_of):
            with pytest.raises(MappingError, match="unknown mode 'ghost'"):
                lookup("ghost", "t1")
            with pytest.raises(MappingError, match="no task 'u1' in mode 'O1'"):
                lookup("O1", "u1")
        with pytest.raises(MappingError, match="unknown mode 'ghost'"):
            genome.mode_mapping("ghost")

    def test_candidates_at(self, two_mode_problem):
        genome = MappingString(two_mode_problem, ["PE0"] * 7)
        assert set(genome.candidates_at(0)) == {"PE0", "PE1"}
        with pytest.raises(MappingError):
            genome.candidates_at(99)

    def test_equality_and_hash(self, two_mode_problem):
        a = MappingString(two_mode_problem, ["PE0"] * 7)
        b = MappingString(two_mode_problem, ["PE0"] * 7)
        c = MappingString(two_mode_problem, ["PE1"] + ["PE0"] * 6)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2


class TestOperators:
    def test_with_gene(self, two_mode_problem):
        genome = MappingString(two_mode_problem, ["PE0"] * 7)
        changed = genome.with_gene(2, "PE1")
        assert changed.genes[2] == "PE1"
        assert genome.genes[2] == "PE0"  # original untouched

    def test_with_gene_validates(self, two_mode_problem):
        genome = MappingString(two_mode_problem, ["PE0"] * 7)
        with pytest.raises(MappingError):
            genome.with_gene(0, "GHOST")
        with pytest.raises(MappingError):
            genome.with_gene(42, "PE0")

    def test_with_genes(self, two_mode_problem):
        genome = MappingString(two_mode_problem, ["PE0"] * 7)
        changed = genome.with_genes({0: "PE1", 6: "PE1"})
        assert changed.genes[0] == "PE1"
        assert changed.genes[6] == "PE1"

    def test_with_genes_validates_each_replacement(self, two_mode_problem):
        genome = MappingString(two_mode_problem, ["PE0"] * 7)
        with pytest.raises(MappingError, match="task 'u3' in mode 'O2'"):
            genome.with_genes({0: "PE1", 6: "GHOST"})
        with pytest.raises(MappingError, match="out of range"):
            genome.with_genes({0: "PE1", -1: "PE1"})

    def test_mutate_rate_zero_returns_self(self, two_mode_problem, rng):
        genome = MappingString.random(two_mode_problem, rng)
        assert genome.mutate(rng, 0.0) is genome

    def test_mutate_rate_one_changes_every_gene(
        self, two_mode_problem, rng
    ):
        genome = MappingString(two_mode_problem, ["PE0"] * 7)
        mutated = genome.mutate(rng, 1.0)
        # Every gene has exactly two candidates, so rate 1 flips all.
        assert all(gene == "PE1" for gene in mutated.genes)

    def test_crossover_produces_valid_children(
        self, two_mode_problem, rng
    ):
        parent_a = MappingString(two_mode_problem, ["PE0"] * 7)
        parent_b = MappingString(two_mode_problem, ["PE1"] * 7)
        child_a, child_b = parent_a.crossover_two_point(parent_b, rng)
        # Gene multiset is preserved position-wise.
        for index in range(7):
            pair = {child_a.genes[index], child_b.genes[index]}
            assert pair == {"PE0", "PE1"}

    def test_crossover_exchanges_some_genes(self, two_mode_problem):
        rng = random.Random(5)
        parent_a = MappingString(two_mode_problem, ["PE0"] * 7)
        parent_b = MappingString(two_mode_problem, ["PE1"] * 7)
        exchanged = False
        for _ in range(20):
            child_a, _ = parent_a.crossover_two_point(parent_b, rng)
            if "PE1" in child_a.genes:
                exchanged = True
                break
        assert exchanged
