"""The `repro.api` facade: the supported import surface."""

import pytest

import repro
from repro import (
    CampaignSpec,
    SynthesisConfig,
    load_problem,
    problem_names,
    resume_campaign,
    run_campaign,
    synthesize,
)
from repro.benchgen import registry
from repro.problem import Problem
from repro.runtime.checkpoint import spec_path

from tests.conftest import make_two_mode_problem


class TestFacadeSurface:
    def test_everything_reachable_from_top_level(self):
        for name in (
            "load_problem",
            "problem_names",
            "synthesize",
            "run_campaign",
            "resume_campaign",
            "CampaignSpec",
            "CampaignRunner",
            "CampaignResult",
            "JobSpec",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    @pytest.mark.parametrize("module", [repro, repro.api])
    def test_every_exported_name_resolves(self, module):
        # A stale __all__ entry for a deleted name fails here, not at
        # the first `from repro import *` downstream.
        missing = [
            name for name in module.__all__ if not hasattr(module, name)
        ]
        assert not missing
        assert len(set(module.__all__)) == len(module.__all__)

    def test_load_problem_uses_registry(self):
        problem = load_problem("mul2")
        assert isinstance(problem, Problem)
        assert problem.name == "mul2"

    def test_load_problem_unknown_name(self):
        with pytest.raises(KeyError, match="valid names"):
            load_problem("nonesuch")

    def test_problem_names(self):
        names = problem_names()
        assert names == registry.names()
        assert "mul1" in names and "smartphone" in names


class TestSynthesizeFacade:
    def test_synthesize_runs_a_problem(self):
        problem = make_two_mode_problem()
        result = synthesize(
            problem,
            SynthesisConfig(
                population_size=8, max_generations=6, seed=1
            ),
        )
        assert result.best is not None
        assert result.average_power > 0


class TestRunCampaignFacade:
    def _problem_loader(self):
        problem = make_two_mode_problem()
        return lambda name: problem

    def _spec_dict(self):
        return {
            "name": "api-smoke",
            "instances": ["two_mode"],
            "runs": 1,
            "base_seed": 2,
            "config": {
                "population_size": 8,
                "max_generations": 6,
                "convergence_generations": 4,
            },
            "checkpoint_every": 3,
        }

    def test_accepts_plain_dict_and_temp_dir(self):
        outcome = run_campaign(
            self._spec_dict(), problem_loader=self._problem_loader()
        )
        assert outcome.completed == 2
        assert outcome.failed == 0

    def test_accepts_spec_path(self, tmp_path):
        spec = CampaignSpec.from_dict(self._spec_dict())
        path = tmp_path / "spec.json"
        spec.save(path)
        outcome = run_campaign(
            path,
            tmp_path / "run",
            problem_loader=self._problem_loader(),
        )
        assert outcome.completed == 2
        assert spec_path(tmp_path / "run").exists()

    def test_resume_campaign_reexported(self, tmp_path):
        loader = self._problem_loader()
        run_campaign(self._spec_dict(), tmp_path / "run", problem_loader=loader)
        again = resume_campaign(tmp_path / "run", problem_loader=loader)
        assert again.completed == 2
