"""Unit tests for the synthesis configuration."""

import dataclasses

import pytest

from repro.errors import SynthesisError
from repro.synthesis.config import DvsMethod, SynthesisConfig


class TestDefaults:
    def test_probability_aware_by_default(self):
        config = SynthesisConfig()
        assert config.use_probabilities
        assert config.dvs is DvsMethod.NONE

    def test_paper_shutdown_rate(self):
        assert SynthesisConfig().shutdown_mutation_rate == 0.02


class TestValidation:
    def test_population_too_small(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(population_size=1)

    def test_generations_positive(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(max_generations=0)

    @pytest.mark.parametrize("pressure", [0.9, 2.1])
    def test_selection_pressure_range(self, pressure):
        with pytest.raises(SynthesisError):
            SynthesisConfig(selection_pressure=pressure)

    def test_tournament_positive(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(tournament_size=0)

    @pytest.mark.parametrize("rate", [-0.1, 1.1])
    def test_crossover_rate_range(self, rate):
        with pytest.raises(SynthesisError):
            SynthesisConfig(crossover_rate=rate)

    def test_mutation_rate_range(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(per_gene_mutation_rate=1.5)
        assert SynthesisConfig(per_gene_mutation_rate=None)

    def test_elite_count_range(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(population_size=10, elite_count=10)
        with pytest.raises(SynthesisError):
            SynthesisConfig(elite_count=-1)

    def test_weights_non_negative(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(area_weight=-1.0)
        with pytest.raises(SynthesisError):
            SynthesisConfig(transition_weight=-1.0)
        with pytest.raises(SynthesisError):
            SynthesisConfig(timing_weight=-1.0)

    def test_repair_fraction_range(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(repair_fraction=0.0)

    def test_dvs_value_string_converted(self):
        for method in DvsMethod:
            config = SynthesisConfig(dvs=method.value)
            assert config.dvs is method
        assert SynthesisConfig(dvs=DvsMethod.UNIFORM).dvs is DvsMethod.UNIFORM

    def test_unknown_dvs_value_rejected(self):
        for bad in ("GRADIENT", "sawtooth", None):
            with pytest.raises(SynthesisError, match="valid values"):
                SynthesisConfig(dvs=bad)


class TestSerialisation:
    def test_round_trip(self):
        config = SynthesisConfig(
            population_size=24,
            dvs=DvsMethod.GRADIENT,
            use_probabilities=False,
            per_gene_mutation_rate=0.05,
            seed=9,
            jobs=2,
        )
        data = config.to_dict()
        assert data["dvs"] == "gradient"  # enum serialised by value
        restored = SynthesisConfig.from_dict(data)
        assert restored == config
        assert restored.dvs is DvsMethod.GRADIENT

    def test_default_round_trip(self):
        config = SynthesisConfig()
        assert SynthesisConfig.from_dict(config.to_dict()) == config

    def test_mode_cache_fields_round_trip(self):
        # A dict written before the cache switches were retired still
        # loads, whatever they were set to; the keys are dropped.
        config = SynthesisConfig(seed=3)
        for decode_cache, mode_cache, size in (
            (True, True, 4096),
            (False, False, 64),
        ):
            data = config.to_dict()
            data.update(
                decode_cache=decode_cache,
                mode_cache=mode_cache,
                mode_cache_size=size,
            )
            restored = SynthesisConfig.from_dict(data)
            assert restored == config
            assert restored.to_dict() == config.to_dict()

    def test_mode_cache_defaults_serialised(self):
        data = SynthesisConfig().to_dict()
        fields = {f.name for f in dataclasses.fields(SynthesisConfig)}
        for key in ("decode_cache", "mode_cache", "mode_cache_size"):
            assert key not in data and key not in fields

    def test_vector_dvs_fields_round_trip(self):
        # Same for the retired DVS switches, as long as the warm start
        # was off (see test_warm_start_true_rejected).
        config = SynthesisConfig(dvs=DvsMethod.GRADIENT)
        for vector_dvs in (True, False):
            data = config.to_dict()
            data.update(vector_dvs=vector_dvs, dvs_warm_start=False)
            assert SynthesisConfig.from_dict(data) == config

    def test_vector_dvs_defaults_serialised(self):
        data = SynthesisConfig().to_dict()
        fields = {f.name for f in dataclasses.fields(SynthesisConfig)}
        for key in ("vector_dvs", "dvs_warm_start"):
            assert key not in data and key not in fields

    def test_warm_start_true_rejected(self):
        data = SynthesisConfig().to_dict()
        data["dvs_warm_start"] = True
        with pytest.raises(SynthesisError, match="warm start .* removed"):
            SynthesisConfig.from_dict(data)
        with pytest.raises(SynthesisError, match="warm start .* removed"):
            SynthesisConfig().with_updates(dvs_warm_start=True)

    def test_inner_loop_iterations_zero_dropped(self):
        # The retired priority-search knob at its old default loads
        # with the key dropped, through both entry points.
        config = SynthesisConfig(seed=3)
        data = config.to_dict()
        data["inner_loop_iterations"] = 0
        assert SynthesisConfig.from_dict(data) == config
        assert config.with_updates(inner_loop_iterations=0) == config
        fields = {f.name for f in dataclasses.fields(SynthesisConfig)}
        assert "inner_loop_iterations" not in fields
        assert "inner_loop_iterations" not in config.to_dict()

    def test_inner_loop_iterations_nonzero_rejected(self):
        # A non-zero value changed results; it cannot load silently.
        data = SynthesisConfig().to_dict()
        data["inner_loop_iterations"] = 2
        with pytest.raises(SynthesisError, match="inner_loop_iterations"):
            SynthesisConfig.from_dict(data)
        with pytest.raises(SynthesisError, match="inner_loop_iterations"):
            SynthesisConfig().with_updates(inner_loop_iterations=2)

    def test_speculation_fields_round_trip(self):
        # A dict written before the pool switches were retired still
        # loads, whatever they were set to; the keys are dropped.
        config = SynthesisConfig(seed=3, jobs=2)
        for async_pool, speculative, depth in (
            (True, True, 1),
            (False, False, 3),
        ):
            data = config.to_dict()
            data.update(
                async_pool=async_pool,
                speculative=speculative,
                speculation_depth=depth,
            )
            restored = SynthesisConfig.from_dict(data)
            assert restored == config
            assert restored.to_dict() == config.to_dict()
            assert config.with_updates(
                async_pool=async_pool,
                speculative=speculative,
                speculation_depth=depth,
            ) == config

    def test_speculation_defaults_serialised(self):
        data = SynthesisConfig().to_dict()
        fields = {f.name for f in dataclasses.fields(SynthesisConfig)}
        for key in ("async_pool", "speculative", "speculation_depth"):
            assert key not in data and key not in fields
        assert len(fields) == 26

    @pytest.mark.parametrize("mode", ["fallback", "raise"])
    def test_pool_failure_mode_dropped(self, mode):
        # Both failure policies of earlier versions load: a dead pool
        # now always falls back in place.
        config = SynthesisConfig(seed=3, jobs=2)
        data = config.to_dict()
        data["pool_failure_mode"] = mode
        restored = SynthesisConfig.from_dict(data)
        assert restored == config
        assert "pool_failure_mode" not in restored.to_dict()
        assert config.with_updates(pool_failure_mode=mode) == config

    def test_speculation_depth_validated(self):
        # Retired keys are dropped before validation, so any depth
        # loads — even values the old field rejected.
        data = SynthesisConfig().to_dict()
        for depth in (0, -2, 5):
            data["speculation_depth"] = depth
            assert SynthesisConfig.from_dict(data) == SynthesisConfig()

    def test_unknown_keys_rejected(self):
        data = SynthesisConfig().to_dict()
        data["poplation_size"] = 10  # typo must not pass silently
        with pytest.raises(SynthesisError, match="poplation_size"):
            SynthesisConfig.from_dict(data)

    def test_from_dict_validates(self):
        data = SynthesisConfig().to_dict()
        data["population_size"] = 1
        with pytest.raises(SynthesisError):
            SynthesisConfig.from_dict(data)

    def test_from_dict_accepts_dvs_string(self):
        data = SynthesisConfig().to_dict()
        data["dvs"] = "uniform"
        assert SynthesisConfig.from_dict(data).dvs is DvsMethod.UNIFORM
        data["dvs"] = "sawtooth"
        with pytest.raises(SynthesisError):
            SynthesisConfig.from_dict(data)


class TestWithUpdates:
    def test_returns_modified_copy(self):
        base = SynthesisConfig(seed=1)
        other = base.with_updates(seed=2, dvs=DvsMethod.GRADIENT)
        assert base.seed == 1
        assert other.seed == 2
        assert other.dvs is DvsMethod.GRADIENT
        assert other.population_size == base.population_size

    def test_updates_validated(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig().with_updates(population_size=0)

    def test_retired_keys_accepted_and_dropped(self):
        # The seed-path override the end-to-end benchmark passes.
        base = SynthesisConfig(seed=4, jobs=3)
        updated = base.with_updates(
            decode_cache=False, mode_cache=False, jobs=1
        )
        assert updated == base.with_updates(jobs=1)
        assert base.with_updates(
            mode_cache_size=8, vector_dvs=False, dvs_warm_start=False
        ) == base
