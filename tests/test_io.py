"""Tests for JSON serialisation of problems and mappings."""

import json
import math
import pathlib
import random

import pytest

from repro.benchgen import registry
from repro.errors import SpecificationError
from repro.io import (
    load_problem,
    load_result,
    mapping_from_dict,
    mapping_to_dict,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from repro.mapping.encoding import MappingString
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.evaluator import evaluate_mapping

from tests.conftest import make_parallel_hw_problem, make_two_mode_problem

#: Schema-1 files written by an earlier commit: ``save_problem`` and
#: ``save_result`` on mul1 (population 10, 6 generations, seed 3) and
#: ``repro-mm synthesize mul1 --population 10 --generations 6
#: --convergence 10 --seed 4 --save-mapping``.
COMMITTED = pathlib.Path(__file__).resolve().parent / "fixtures" / "repro_io"


class TestProblemRoundtrip:
    def test_roundtrip_preserves_structure(self):
        original = make_two_mode_problem()
        rebuilt = problem_from_dict(problem_to_dict(original))
        assert rebuilt.name == original.name
        assert rebuilt.omsm.mode_names == original.omsm.mode_names
        assert (
            rebuilt.omsm.probability_vector()
            == original.omsm.probability_vector()
        )
        assert rebuilt.architecture.pe_names == (
            original.architecture.pe_names
        )
        assert len(rebuilt.technology) == len(original.technology)
        assert rebuilt.genome_length() == original.genome_length()

    def test_roundtrip_preserves_task_graphs(self):
        original = make_parallel_hw_problem()
        rebuilt = problem_from_dict(problem_to_dict(original))
        for mode in original.omsm.modes:
            rebuilt_graph = rebuilt.omsm.mode(mode.name).task_graph
            assert rebuilt_graph.task_names == mode.task_graph.task_names
            assert [e.key for e in rebuilt_graph.edges] == [
                e.key for e in mode.task_graph.edges
            ]

    def test_roundtrip_preserves_dvs_settings(self):
        original = make_two_mode_problem(dvs_hw=True)
        rebuilt = problem_from_dict(problem_to_dict(original))
        for pe in original.architecture.pes:
            twin = rebuilt.architecture.pe(pe.name)
            assert twin.voltage_levels == pe.voltage_levels
            assert twin.threshold_voltage == pe.threshold_voltage

    def test_infinite_transition_limit(self):

        original = make_two_mode_problem(transition_limit=math.inf)
        data = problem_to_dict(original)
        assert data["transitions"][0]["max_time"] is None
        rebuilt = problem_from_dict(data)
        assert math.isinf(rebuilt.omsm.transition("O1", "O2").max_time)

    def test_synthesis_on_rebuilt_problem(self):
        from repro.synthesis import SynthesisConfig, synthesize

        rebuilt = problem_from_dict(
            problem_to_dict(make_two_mode_problem())
        )
        result = synthesize(
            rebuilt,
            SynthesisConfig(
                seed=1,
                population_size=10,
                max_generations=10,
                convergence_generations=4,
            ),
        )
        assert result.average_power > 0

    def test_file_roundtrip(self, tmp_path):
        original = make_two_mode_problem()
        path = tmp_path / "problem.json"
        save_problem(original, path)
        loaded = load_problem(path)
        assert loaded.name == original.name
        # The file is valid, indented JSON.
        parsed = json.loads(path.read_text())
        assert parsed["schema"] == 1

    def test_bad_schema_rejected(self):
        data = problem_to_dict(make_two_mode_problem())
        data["schema"] = 99
        with pytest.raises(SpecificationError, match="schema"):
            problem_from_dict(data)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
    def test_bool_or_float_version_refused(self, version):
        data = problem_to_dict(make_two_mode_problem())
        data["schema"] = version
        with pytest.raises(SpecificationError, match="schema"):
            problem_from_dict(data)

    def test_tampered_file_fails_validation(self):
        data = problem_to_dict(make_two_mode_problem())
        data["modes"][0]["probability"] = 0.5  # no longer sums to 1
        with pytest.raises(SpecificationError):
            problem_from_dict(data)


class TestRegisteredInstances:
    """The spec format carries every registered instance losslessly:
    a file written from a built-in problem rebuilds one that
    serialises and evaluates exactly like the original."""

    @pytest.fixture(scope="class", params=registry.names())
    def problem(self, request):
        return registry.get(request.param)

    def test_double_roundtrip_is_identity(self, problem):
        once = problem_to_dict(problem)
        assert problem_to_dict(problem_from_dict(once)) == once

    def test_rebuilt_instance_evaluates_identically(self, problem):
        from repro.synthesis.config import SynthesisConfig
        from repro.synthesis.evaluator import evaluate_mapping

        rebuilt = problem_from_dict(problem_to_dict(problem))
        genome = MappingString.random(problem, random.Random(7))
        twin = MappingString(rebuilt, list(genome.genes))
        config = SynthesisConfig()
        original = evaluate_mapping(problem, genome, config)
        copy = evaluate_mapping(rebuilt, twin, config)
        assert original is not None and copy is not None
        assert copy.metrics.average_power == original.metrics.average_power
        assert copy.metrics.fitness == original.metrics.fitness


class TestMappingRoundtrip:
    def test_roundtrip(self):
        problem = make_two_mode_problem()
        mapping = MappingString.random(problem, random.Random(2))
        rebuilt = mapping_from_dict(problem, mapping_to_dict(mapping))
        assert rebuilt == mapping

    def test_wrong_problem_rejected(self):
        problem = make_two_mode_problem()
        other = make_parallel_hw_problem()
        mapping = MappingString.random(problem, random.Random(2))
        data = mapping_to_dict(mapping)
        with pytest.raises(SpecificationError, match="saved for"):
            mapping_from_dict(other, data)

    def test_bad_schema_rejected(self):
        problem = make_two_mode_problem()
        mapping = MappingString.random(problem, random.Random(2))
        data = mapping_to_dict(mapping)
        data["schema"] = 0
        with pytest.raises(SpecificationError):
            mapping_from_dict(problem, data)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
    def test_bool_or_float_version_refused(self, version):
        problem = make_two_mode_problem()
        mapping = MappingString.random(problem, random.Random(2))
        data = mapping_to_dict(mapping)
        data["schema"] = version
        with pytest.raises(SpecificationError, match="schema"):
            mapping_from_dict(problem, data)


class TestResultRoundtrip:
    """save_result/load_result with the stable mode_powers field."""

    @pytest.fixture(scope="class")
    def problem(self):
        return make_two_mode_problem()

    @pytest.fixture(scope="class")
    def result(self, problem):
        from repro.synthesis.config import SynthesisConfig
        from repro.synthesis.cosynthesis import MultiModeSynthesizer

        config = SynthesisConfig(
            population_size=10, max_generations=10, seed=2
        )
        return MultiModeSynthesizer(problem, config).run()

    def test_mode_powers_are_part_of_the_schema(self, result):
        from repro.io import result_to_dict

        data = result_to_dict(result)
        assert set(data["mode_powers"]) == {"O1", "O2"}
        for entry in data["mode_powers"].values():
            assert set(entry) == {"dynamic", "static"}
        # Consistency with Equation (1): Ψ-weighted sum of the
        # per-mode totals is the aggregate power.
        psi = data["psi"]
        total = sum(
            (entry["dynamic"] + entry["static"]) * psi[mode]
            for mode, entry in data["mode_powers"].items()
        )
        assert total == pytest.approx(data["average_power"], abs=1e-12)

    def test_roundtrip_is_exact(self, problem, result, tmp_path):
        from repro.io import load_result, save_result

        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(problem, path)
        assert loaded.best.mapping.genes == result.best.mapping.genes
        assert loaded.best.metrics.average_power == pytest.approx(
            result.best.metrics.average_power, abs=0
        )
        assert loaded.mode_powers == result.mode_powers
        assert loaded.generations == result.generations
        assert loaded.evaluations == result.evaluations
        assert loaded.history == result.history

    def test_wrong_problem_rejected(self, result, tmp_path):
        from repro.io import load_result, save_result

        path = tmp_path / "result.json"
        save_result(result, path)
        other = make_parallel_hw_problem()
        with pytest.raises(SpecificationError, match="saved for"):
            load_result(other, path)

    def test_tampered_mode_powers_rejected(self, problem, result, tmp_path):
        from repro.io import result_from_dict, result_to_dict

        data = result_to_dict(result)
        data["mode_powers"]["O1"]["dynamic"] += 1e-3
        with pytest.raises(SpecificationError, match="disagree"):
            result_from_dict(problem, data)

    def test_missing_mode_powers_rejected(self, problem, result):
        # The per-mode powers are what re-scores a stored design under
        # another Ψ, so a record without one mode's entry is refused.
        from repro.io import result_from_dict, result_to_dict

        data = result_to_dict(result)
        del data["mode_powers"]["O2"]
        with pytest.raises(SpecificationError, match="mode_powers"):
            result_from_dict(problem, data)

    def test_unknown_schema_rejected(self, problem, result):
        from repro.io import result_from_dict, result_to_dict

        data = result_to_dict(result)
        data["schema"] = "v999"
        with pytest.raises(SpecificationError, match="schema"):
            result_from_dict(problem, data)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
    def test_bool_or_float_version_refused(self, problem, result, version):
        from repro.io import result_from_dict, result_to_dict

        data = result_to_dict(result)
        data["schema"] = version
        with pytest.raises(SpecificationError, match="schema"):
            result_from_dict(problem, data)

    def test_loaded_mode_powers_rescore_under_any_psi(
        self, problem, result, tmp_path
    ):
        """Equation (1) is linear in Ψ: the stored per-mode powers
        re-score a design exactly under any probability vector.

        For each random Ψ, the Ψ-weighted sum of a loaded result's
        ``mode_powers`` must match Equation (1) over the loaded
        design's schedules, which are rebuilt lazily on this read: a
        full schedule and DVS pass.
        """
        from repro.benchgen.suite import suite_problem
        from repro.io import load_result, save_result
        from repro.power import average_power
        from repro.synthesis.config import DvsMethod, SynthesisConfig
        from repro.synthesis.cosynthesis import MultiModeSynthesizer

        mul1 = suite_problem("mul1")
        gradient = SynthesisConfig(
            dvs=DvsMethod.GRADIENT,
            population_size=8,
            max_generations=4,
            seed=3,
        )
        cases = [
            (problem, result, SynthesisConfig()),
            (mul1, MultiModeSynthesizer(mul1, gradient).run(), gradient),
        ]
        rng = random.Random(42)
        for instance, original, config in cases:
            path = tmp_path / f"{instance.name}.json"
            save_result(original, path)
            loaded = load_result(instance, path, config)
            modes = instance.omsm.mode_names
            for _ in range(25):
                weights = [rng.random() + 1e-3 for _ in modes]
                psi = {
                    mode: w / sum(weights) for mode, w in zip(modes, weights)
                }
                rescored = sum(
                    (entry["dynamic"] + entry["static"]) * psi[mode]
                    for mode, entry in loaded.mode_powers.items()
                )
                direct = average_power(instance, loaded.best.schedules, psi)
                assert abs(rescored - direct) <= 1e-9


class TestCommittedFiles:
    """Files an earlier commit wrote still load."""

    def test_problem_equals_the_registry_instance(self):
        loaded = load_problem(COMMITTED / "problem_mul1.json")
        assert problem_to_dict(loaded) == problem_to_dict(registry.get("mul1"))

    def test_result_loads_with_its_stored_power_and_genes(self):
        path = COMMITTED / "result_mul1.json"
        stored = json.loads(path.read_text())
        result = load_result(registry.get("mul1"), path)
        assert result.average_power == stored["average_power"]
        assert result.best.mapping.full_mapping() == stored["mapping"]
        assert result.history == stored["history"]
        assert result.evaluations == stored["evaluations"]

    def test_mapping_loads_onto_its_problem(self):
        problem = registry.get("mul1")
        stored = json.loads((COMMITTED / "mapping_mul1.json").read_text())
        mapping = mapping_from_dict(problem, stored)
        assert mapping.full_mapping() == stored["mapping"]
        # The design the run that saved it printed: 130.6276 mW.
        implementation = evaluate_mapping(problem, mapping, SynthesisConfig())
        assert implementation.metrics.is_feasible
        assert implementation.metrics.average_power == pytest.approx(
            0.1306276, abs=1e-7
        )
