"""GAState serialisation and bit-identical synthesizer resume."""

import json
import math
import random

import pytest

from repro.errors import SynthesisError
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer
from repro.synthesis.state import (
    GAState,
    decode_rng_state,
    encode_rng_state,
)

from tests.conftest import make_two_mode_problem


class TestRngEncoding:
    def test_round_trip_reproduces_the_stream(self):
        rng = random.Random(1234)
        rng.random()  # advance off the seed point
        encoded = json.loads(json.dumps(encode_rng_state(rng.getstate())))
        clone = random.Random()
        clone.setstate(decode_rng_state(encoded))
        assert [clone.random() for _ in range(10)] == [
            rng.random() for _ in range(10)
        ]


class TestGAStateSerialisation:
    def _state(self, **overrides):
        values = dict(
            generation=4,
            rng_state=random.Random(2).getstate(),
            population=[("a", "b"), ("b", "a")],
            best_genes=("a", "b"),
            best_fitness=3.5,
            stagnant=1,
            area_stall=0,
            timing_stall=2,
            transition_stall=0,
            history=[9.0, 5.0, 3.5],
            evaluations=40,
        )
        values.update(overrides)
        return GAState(**values)

    def test_json_round_trip(self):
        state = self._state()
        data = json.loads(json.dumps(state.to_dict()))
        restored = GAState.from_dict(data)
        assert restored == state
        assert restored.restore_rng().getstate() == state.rng_state

    def test_infinities_survive_json(self):
        state = self._state(
            best_genes=None,
            best_fitness=math.inf,
            history=[math.inf, 5.0],
        )
        data = json.loads(json.dumps(state.to_dict()))
        assert data["best_fitness"] is None  # valid JSON, no "Infinity"
        restored = GAState.from_dict(data)
        assert restored.best_fitness == math.inf
        assert restored.history == [math.inf, 5.0]
        assert restored.best_genes is None

    def test_unknown_version_rejected(self):
        data = self._state().to_dict()
        data["version"] = 99
        with pytest.raises(SynthesisError, match="version"):
            GAState.from_dict(data)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
    def test_bool_or_float_version_refused(self, version):
        data = self._state().to_dict()
        data["version"] = version
        with pytest.raises(SynthesisError, match="version"):
            GAState.from_dict(data)


class TestSynthesizerResume:
    @pytest.fixture(scope="class")
    def problem(self):
        return make_two_mode_problem()

    def _config(self):
        return SynthesisConfig(
            population_size=10,
            max_generations=12,
            convergence_generations=8,
            seed=21,
        )

    def test_resume_is_bit_identical(self, problem):
        config = self._config()
        snapshots = []
        reference = MultiModeSynthesizer(problem, config).run(
            on_generation=snapshots.append
        )
        assert snapshots, "run emitted no generation snapshots"

        for snapshot in (snapshots[0], snapshots[len(snapshots) // 2]):
            # Serialise through JSON exactly like the checkpoint store.
            state = GAState.from_dict(
                json.loads(json.dumps(snapshot.to_dict()))
            )
            resumed = MultiModeSynthesizer(problem, config).run(
                resume=state
            )
            assert resumed.history == reference.history
            assert resumed.average_power == reference.average_power
            assert (
                resumed.best.mapping.genes == reference.best.mapping.genes
            )
            assert resumed.generations == reference.generations
            # evaluations may exceed the reference: the resumed run
            # starts with a cold evaluation cache (results cannot
            # change — evaluation is a pure function of the genome).
            assert resumed.evaluations >= snapshot.evaluations

    def test_snapshots_are_emitted_per_generation(self, problem):
        config = self._config()
        snapshots = []
        result = MultiModeSynthesizer(problem, config).run(
            on_generation=snapshots.append
        )
        generations = [s.generation for s in snapshots]
        assert generations == sorted(generations)
        assert len(set(generations)) == len(generations)
        # A converged run breaks out of the loop before the snapshot
        # point, so its final generation has no snapshot; a run that
        # exhausts max_generations snapshots every generation.
        assert generations[-1] in (
            result.generations,
            result.generations - 1,
        )
        assert all(s.evaluations > 0 for s in snapshots)

    def test_resume_rejects_mismatched_population_size(self, problem):
        config = self._config()
        snapshots = []
        MultiModeSynthesizer(problem, config).run(
            on_generation=snapshots.append
        )
        state = snapshots[0]
        bigger = config.with_updates(population_size=14)
        with pytest.raises(SynthesisError, match="population"):
            MultiModeSynthesizer(problem, bigger).run(resume=state)
