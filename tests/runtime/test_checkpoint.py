"""Durable checkpoint/result storage in the run directory."""

import json
import pathlib
import random
import shutil

import pytest

from repro.errors import CampaignError
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint_path,
    clear_checkpoint,
    load_checkpoint,
    load_result,
    prepare_run_dir,
    result_path,
    write_checkpoint,
    write_result,
)
from repro.runtime.runner import resume_campaign, run_campaign
from repro.runtime.spec import CampaignSpec
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.state import GAState

#: A run directory written before the evaluation-side switches
#: (decode_cache, mode_cache, mode_cache_size, vector_dvs,
#: dvs_warm_start) were retired: its ``spec.json`` and its mid-run
#: checkpoint (mul1, gradient DVS, killed after generation 4) both
#: still carry those keys.
RETIRED_KEYS_RUN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "fixtures"
    / "retired_config_keys"
)
JOB_ID = "mul1-gradient-prob-s7"


def _state(generation=3):
    rng = random.Random(7)
    return GAState(
        generation=generation,
        rng_state=rng.getstate(),
        population=[(0, 1), (1, 0)],
        best_genes=(0, 1),
        best_fitness=42.5,
        stagnant=1,
        area_stall=0,
        timing_stall=2,
        transition_stall=0,
        history=[50.0, 45.0, 42.5],
        evaluations=30,
    )


@pytest.fixture
def run_dir(tmp_path):
    return prepare_run_dir(tmp_path / "run")


class TestLayout:
    def test_prepare_is_idempotent(self, run_dir):
        again = prepare_run_dir(run_dir)
        assert again == run_dir
        assert (run_dir / "checkpoints").is_dir()
        assert (run_dir / "results").is_dir()


class TestCheckpoints:
    def test_round_trip(self, run_dir):
        config = SynthesisConfig(population_size=12, seed=5)
        state = _state()
        write_checkpoint(run_dir, "job-a", state, config)
        loaded = load_checkpoint(run_dir, "job-a", config)
        assert loaded is not None
        assert loaded.to_dict() == state.to_dict()
        assert loaded.rng_state == state.rng_state

    def test_missing_returns_none(self, run_dir):
        assert load_checkpoint(run_dir, "absent") is None

    def test_checkpoint_carries_version(self, run_dir):
        path = write_checkpoint(
            run_dir, "job-a", _state(), SynthesisConfig()
        )
        assert CHECKPOINT_VERSION == 1
        assert json.loads(path.read_text())["version"] == CHECKPOINT_VERSION

    def test_unknown_version_refused(self, run_dir):
        path = write_checkpoint(
            run_dir, "job-a", _state(), SynthesisConfig()
        )
        data = json.loads(path.read_text())
        data["version"] = 2
        path.write_text(json.dumps(data))
        with pytest.raises(CampaignError) as excinfo:
            load_checkpoint(run_dir, "job-a")
        message = str(excinfo.value)
        assert str(path) in message
        assert "version 2" in message

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
    def test_bool_or_float_version_refused(self, run_dir, version):
        path = write_checkpoint(
            run_dir, "job-a", _state(), SynthesisConfig()
        )
        data = json.loads(path.read_text())
        data["version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(CampaignError, match="unsupported version"):
            load_checkpoint(run_dir, "job-a")

    def test_no_tmp_file_left_behind(self, run_dir):
        write_checkpoint(run_dir, "job-a", _state(), SynthesisConfig())
        leftovers = list((run_dir / "checkpoints").glob("*.tmp"))
        assert leftovers == []

    def test_config_mismatch_raises(self, run_dir):
        write_checkpoint(
            run_dir, "job-a", _state(), SynthesisConfig(seed=5)
        )
        with pytest.raises(CampaignError, match="different synthesis"):
            load_checkpoint(run_dir, "job-a", SynthesisConfig(seed=6))

    @pytest.mark.parametrize(
        "stored",
        [None, "seed=5", {"population_size": 0}, {"bogus_key": 1}],
        ids=["missing", "not-a-dict", "invalid-value", "unknown-key"],
    )
    def test_unloadable_stored_config_is_a_mismatch(self, run_dir, stored):
        # A stored config that no longer loads can never equal the
        # resuming config: the snapshot is refused, not half-applied.
        path = write_checkpoint(
            run_dir, "job-a", _state(), SynthesisConfig(seed=5)
        )
        data = json.loads(path.read_text())
        if stored is None:
            del data["config"]
        elif isinstance(stored, dict):
            data["config"].update(stored)
        else:
            data["config"] = stored
        path.write_text(json.dumps(data))
        with pytest.raises(CampaignError, match="different synthesis"):
            load_checkpoint(run_dir, "job-a", SynthesisConfig(seed=5))
        # Without a config to check against, the state still loads.
        assert load_checkpoint(run_dir, "job-a") is not None

    def test_job_id_mismatch_raises(self, run_dir):
        write_checkpoint(run_dir, "job-a", _state(), SynthesisConfig())
        # Simulate a file copied/renamed into the wrong slot.
        checkpoint_path(run_dir, "job-a").rename(
            checkpoint_path(run_dir, "job-b")
        )
        with pytest.raises(CampaignError, match="belongs to job"):
            load_checkpoint(run_dir, "job-b")

    def test_corrupt_checkpoint_raises(self, run_dir):
        path = checkpoint_path(run_dir, "job-a")
        path.write_text("{ torn")
        with pytest.raises(CampaignError, match="corrupt checkpoint"):
            load_checkpoint(run_dir, "job-a")

    def test_clear_is_idempotent(self, run_dir):
        write_checkpoint(run_dir, "job-a", _state(), SynthesisConfig())
        clear_checkpoint(run_dir, "job-a")
        clear_checkpoint(run_dir, "job-a")
        assert load_checkpoint(run_dir, "job-a") is None


class TestResults:
    def test_round_trip(self, run_dir):
        record = {"job_id": "job-a", "power": 1.25, "history": [2.0, 1.25]}
        write_result(run_dir, "job-a", record)
        assert load_result(run_dir, "job-a") == record
        assert result_path(run_dir, "job-a").exists()

    def test_missing_returns_none(self, run_dir):
        assert load_result(run_dir, "absent") is None


class TestRetiredKeys:
    def test_fixture_carries_retired_keys(self):
        spec = json.loads((RETIRED_KEYS_RUN / "spec.json").read_text())
        checkpoint = json.loads(
            checkpoint_path(RETIRED_KEYS_RUN, JOB_ID).read_text()
        )
        # The checkpoint predates format versions: it loads as version 1.
        assert "version" not in checkpoint
        for config in (spec["config"], checkpoint["config"]):
            assert config["mode_cache"] is True
            assert config["vector_dvs"] is True
            assert config["dvs_warm_start"] is False
            assert config["async_pool"] is True
            assert config["speculative"] is True
            assert config["speculation_depth"] == 1
            assert config["inner_loop_iterations"] == 0
        # Written while campaign jobs retried a dead pool in raise mode.
        assert spec["config"]["pool_failure_mode"] == "fallback"
        assert checkpoint["config"]["pool_failure_mode"] == "raise"
        assert spec["max_retries"] == 2
        assert spec["retry_backoff"] == 0.0

    def test_checkpoint_loads_under_normalised_config(self):
        spec = CampaignSpec.load(RETIRED_KEYS_RUN / "spec.json")
        (job,) = spec.jobs()
        # The configuration the campaign runner resumes the job under.
        config = job.configure(spec.config).with_updates(
            pool_failure_mode="raise"
        )
        state = load_checkpoint(RETIRED_KEYS_RUN, JOB_ID, config)
        assert state is not None and state.generation == 4
        with pytest.raises(CampaignError, match="different synthesis"):
            load_checkpoint(
                RETIRED_KEYS_RUN, JOB_ID, config.with_updates(seed=99)
            )

    def test_resume_is_bit_identical_to_uninterrupted_run(self, tmp_path):
        resumed_dir = tmp_path / "resumed"
        shutil.copytree(RETIRED_KEYS_RUN, resumed_dir)
        resumed = resume_campaign(resumed_dir)
        fresh = run_campaign(
            CampaignSpec.load(RETIRED_KEYS_RUN / "spec.json"),
            tmp_path / "fresh",
        )
        assert resumed.failed == fresh.failed == 0
        got = resumed.results[JOB_ID]
        expected = fresh.results[JOB_ID]
        assert got.resumed_from == 4
        assert got.power == expected.power
        assert got.history == expected.history
        assert got.best_genes == expected.best_genes
        assert got.generations == expected.generations
