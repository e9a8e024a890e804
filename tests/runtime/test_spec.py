"""Unit tests for campaign specifications."""

import pytest

from repro.errors import CampaignError
from repro.runtime.spec import CampaignSpec, JobSpec
from repro.synthesis.config import DvsMethod, SynthesisConfig


class TestJobSpec:
    def test_job_id_is_filesystem_safe_and_unique(self):
        job = JobSpec("mul3", DvsMethod.GRADIENT, True, 412)
        assert job.job_id == "mul3-gradient-prob-s412"
        other = JobSpec("mul3", DvsMethod.GRADIENT, False, 412)
        assert other.job_id != job.job_id

    def test_configure_overrides_cell_fields_only(self):
        base = SynthesisConfig(population_size=17, seed=1)
        job = JobSpec("mul1", DvsMethod.UNIFORM, False, 9)
        config = job.configure(base)
        assert config.population_size == 17
        assert config.dvs is DvsMethod.UNIFORM
        assert not config.use_probabilities
        assert config.seed == 9


class TestExpansion:
    def test_paired_seeds_per_policy(self):
        spec = CampaignSpec(
            name="t", instances=["mul1"], runs=3, base_seed=100
        )
        jobs = spec.jobs()
        assert len(jobs) == 6
        # Run i of both policies shares seed base_seed + i.
        by_seed = {}
        for job in jobs:
            by_seed.setdefault(job.seed, []).append(job.use_probabilities)
        assert by_seed == {
            100: [False, True],
            101: [False, True],
            102: [False, True],
        }

    def test_expansion_order_is_deterministic(self):
        spec = CampaignSpec(
            name="t",
            instances=["mul1", "mul2"],
            dvs_methods=[DvsMethod.NONE, DvsMethod.GRADIENT],
            runs=1,
        )
        ids = [job.job_id for job in spec.jobs()]
        assert ids == sorted(ids, key=ids.index)  # stable
        assert ids[0].startswith("mul1-none")
        assert ids[2].startswith("mul1-gradient")
        assert ids[4].startswith("mul2-none")


class TestValidation:
    def test_needs_instances(self):
        with pytest.raises(CampaignError, match="instance"):
            CampaignSpec(name="t", instances=[])

    def test_rejects_duplicate_instances(self):
        with pytest.raises(CampaignError, match="duplicate"):
            CampaignSpec(name="t", instances=["mul1", "mul1"])

    def test_rejects_bad_counts(self):
        with pytest.raises(CampaignError):
            CampaignSpec(name="t", instances=["mul1"], runs=0)
        with pytest.raises(CampaignError):
            CampaignSpec(
                name="t", instances=["mul1"], checkpoint_every=0
            )

    @pytest.mark.parametrize(
        "overrides,reason",
        [
            ({"name": ""}, "name must be non-empty"),
            ({"dvs_methods": []}, "at least one DVS method"),
            (
                {"dvs_methods": ["gradient", DvsMethod.GRADIENT]},
                "duplicate DVS methods",
            ),
            ({"probability_settings": []}, "at least one probability"),
            (
                {"probability_settings": [True, True]},
                "duplicate probability settings",
            ),
            ({"instances": "mul1"}, "field 'instances'"),
            ({"dvs_methods": ["bogus"]}, "field 'dvs_methods'"),
            ({"probability_settings": ["yes"]}, "field 'probability_settings'"),
            ({"runs": "2"}, "field 'runs'"),
            ({"base_seed": "x"}, "field 'base_seed'"),
            ({"checkpoint_every": 2.5}, "field 'checkpoint_every'"),
        ],
        ids=[
            "empty-name",
            "no-dvs",
            "duplicate-dvs",
            "no-policy",
            "duplicate-policy",
            "instances-string",
            "unknown-dvs",
            "policy-not-bool",
            "runs-string",
            "seed-string",
            "cadence-float",
        ],
    )
    def test_rejects_degenerate_axes(self, overrides, reason):
        values = dict(name="t", instances=["mul1"])
        values.update(overrides)
        with pytest.raises(CampaignError, match=reason):
            CampaignSpec(**values)

    def test_string_dvs_methods_are_coerced(self):
        spec = CampaignSpec(
            name="t", instances=["mul1"], dvs_methods=["gradient"]
        )
        assert spec.dvs_methods == [DvsMethod.GRADIENT]


class TestRoundTrip:
    def test_json_round_trip(self, tmp_path):
        spec = CampaignSpec(
            name="table2",
            instances=["mul1", "mul7"],
            dvs_methods=[DvsMethod.GRADIENT],
            probability_settings=[False, True],
            runs=4,
            base_seed=400,
            config=SynthesisConfig(population_size=24, jobs=2),
            checkpoint_every=3,
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        loaded = CampaignSpec.load(path)
        assert loaded.to_dict() == spec.to_dict()
        assert loaded.config == spec.config
        assert [j.job_id for j in loaded.jobs()] == [
            j.job_id for j in spec.jobs()
        ]

    def test_unknown_keys_rejected(self):
        data = CampaignSpec(name="t", instances=["mul1"]).to_dict()
        data["retries"] = 3  # typo for max_retries
        with pytest.raises(CampaignError, match="retries"):
            CampaignSpec.from_dict(data)

    def test_unknown_config_keys_rejected(self):
        data = CampaignSpec(name="t", instances=["mul1"]).to_dict()
        data["config"]["poplation_size"] = 10
        with pytest.raises(CampaignError, match="poplation_size"):
            CampaignSpec.from_dict(data)

    def test_unknown_version_rejected(self):
        data = CampaignSpec(name="t", instances=["mul1"]).to_dict()
        data["version"] = 99
        with pytest.raises(CampaignError, match="version 99"):
            CampaignSpec.from_dict(data)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
    def test_bool_or_float_version_refused(self, version):
        data = CampaignSpec(name="t", instances=["mul1"]).to_dict()
        data["version"] = version
        with pytest.raises(CampaignError, match="spec version"):
            CampaignSpec.from_dict(data)

    def test_retry_keys_dropped(self):
        # Specs of earlier versions carry the retry settings of the
        # campaign runner; a dead pool now falls back in place.
        spec = CampaignSpec(name="t", instances=["mul1"])
        data = spec.to_dict()
        data.update(max_retries=-1, retry_backoff=0.5)
        loaded = CampaignSpec.from_dict(data)
        assert loaded.to_dict() == spec.to_dict()
        assert "max_retries" not in loaded.to_dict()

    def test_missing_required_field_rejected(self):
        data = CampaignSpec(name="t", instances=["mul1"]).to_dict()
        del data["name"]
        with pytest.raises(CampaignError, match="invalid campaign spec"):
            CampaignSpec.from_dict(data)

    def test_torn_file_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        CampaignSpec(name="t", instances=["mul1"]).save(path)
        path.write_text(path.read_text()[:20])
        with pytest.raises(CampaignError, match="not valid JSON"):
            CampaignSpec.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign spec"):
            CampaignSpec.load(tmp_path / "absent.json")
