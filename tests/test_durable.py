"""Every JSON file the package saves survives a failed write.

Each writer goes through :func:`repro.durable.atomic_write_json`: when
the final rename fails, the writer must raise and the previous file
must still load, with no temp file left behind.
"""

import dataclasses
import json
import os
import random

import pytest

from repro.benchgen import registry
from repro.cli import main
from repro.durable import atomic_write_json
from repro.io import (
    load_problem,
    load_result,
    mapping_from_dict,
    problem_to_dict,
    save_problem,
    save_result,
)
from repro.obs.summary import load_run_summary, write_run_summary
from repro.runtime import checkpoint
from repro.runtime.spec import CampaignSpec
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer
from repro.synthesis.state import GAState

from tests.conftest import make_parallel_hw_problem, make_two_mode_problem


def _refuse(src, dst):
    raise OSError("rename refused")


def assert_write_refused(monkeypatch, directory, write):
    """``write`` raises when the rename fails and leaves no temp file."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", _refuse)
        with pytest.raises(OSError, match="rename refused"):
            write()
    assert not list(directory.glob("**/*.tmp"))


class TestAtomicWriteJson:
    def test_layout(self, tmp_path):
        path = tmp_path / "data.json"
        atomic_write_json(path, {"b": 1, "a": [2]}, indent=2, sort_keys=True)
        assert path.read_text() == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
        atomic_write_json(path, {"b": 1, "a": 2})
        assert path.read_text() == '{"b": 1, "a": 2}\n'

    def test_failed_rename_keeps_previous_file(self, monkeypatch, tmp_path):
        path = tmp_path / "data.json"
        atomic_write_json(path, {"v": 1})
        assert_write_refused(
            monkeypatch, tmp_path, lambda: atomic_write_json(path, {"v": 2})
        )
        assert json.loads(path.read_text()) == {"v": 1}


class TestWriters:
    def test_campaign_spec(self, monkeypatch, tmp_path):
        path = tmp_path / "spec.json"
        CampaignSpec(name="old", instances=["mul1"]).save(path)
        new = CampaignSpec(name="new", instances=["mul2"])
        assert_write_refused(monkeypatch, tmp_path, lambda: new.save(path))
        assert CampaignSpec.load(path).name == "old"

    def test_save_problem(self, monkeypatch, tmp_path):
        path = tmp_path / "problem.json"
        old = make_two_mode_problem()
        save_problem(old, path)
        new = make_parallel_hw_problem()
        assert_write_refused(
            monkeypatch, tmp_path, lambda: save_problem(new, path)
        )
        assert problem_to_dict(load_problem(path)) == problem_to_dict(old)

    def test_save_result(self, monkeypatch, tmp_path):
        problem = make_two_mode_problem()
        config = SynthesisConfig(
            population_size=6, max_generations=2, seed=1
        )
        old = MultiModeSynthesizer(problem, config).run()
        path = tmp_path / "result.json"
        save_result(old, path)
        new = dataclasses.replace(old, generations=old.generations + 1)
        assert_write_refused(
            monkeypatch, tmp_path, lambda: save_result(new, path)
        )
        assert load_result(problem, path).generations == old.generations

    def test_synthesize_save_mapping(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "mapping.json"
        argv = [
            "synthesize",
            "mul1",
            "--save-mapping",
            str(path),
            "--population",
            "6",
            "--generations",
            "2",
        ]
        assert main(argv) == 0
        old = json.loads(path.read_text())
        assert_write_refused(
            monkeypatch, tmp_path, lambda: main(argv + ["--seed", "1"])
        )
        assert json.loads(path.read_text()) == old
        mapping_from_dict(registry.get("mul1"), old)

    def test_run_summary(self, monkeypatch, tmp_path):
        write_run_summary(tmp_path, {"version": 1, "campaign": "old"})
        assert_write_refused(
            monkeypatch,
            tmp_path,
            lambda: write_run_summary(
                tmp_path, {"version": 1, "campaign": "new"}
            ),
        )
        assert load_run_summary(tmp_path)["campaign"] == "old"

    def test_ga_checkpoint(self, monkeypatch, tmp_path):
        checkpoint.prepare_run_dir(tmp_path)
        config = SynthesisConfig(seed=5)

        def state(generation):
            return GAState(
                generation=generation,
                rng_state=random.Random(generation).getstate(),
                population=[("PE0", "PE1"), ("PE1", "PE0")],
                best_genes=("PE0", "PE1"),
                best_fitness=1.0 / generation,
                stagnant=generation - 1,
                area_stall=0,
                timing_stall=0,
                transition_stall=0,
                history=[1.0 / generation],
                evaluations=10 * generation,
            )

        checkpoint.write_checkpoint(tmp_path, "job", state(1), config)
        assert_write_refused(
            monkeypatch,
            tmp_path,
            lambda: checkpoint.write_checkpoint(
                tmp_path, "job", state(2), config
            ),
        )
        loaded = checkpoint.load_checkpoint(tmp_path, "job", config)
        assert loaded.to_dict() == state(1).to_dict()

    def test_job_result(self, monkeypatch, tmp_path):
        checkpoint.prepare_run_dir(tmp_path)
        checkpoint.write_result(tmp_path, "job", {"power": 1.0})
        assert_write_refused(
            monkeypatch,
            tmp_path,
            lambda: checkpoint.write_result(tmp_path, "job", {"power": 2.0}),
        )
        assert checkpoint.load_result(tmp_path, "job") == {"power": 1.0}
