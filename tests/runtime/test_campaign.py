"""CampaignRunner behaviour: queue execution, durability, failures."""

import pytest

from repro.errors import CampaignError, SynthesisError
from repro.eval.cache import mode_cache_for
from repro.obs.summary import load_run_summary, run_summary_path
from repro.runtime import runner as runner_mod
from repro.runtime.checkpoint import load_result, spec_path
from repro.runtime.events import events_path, read_events
from repro.runtime.runner import (
    CampaignRunner,
    JobResult,
    resume_campaign,
    run_campaign,
)
from repro.runtime.spec import CampaignSpec
from repro.synthesis import cosynthesis
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer

from tests.conftest import make_two_mode_problem


@pytest.fixture(scope="module")
def problem():
    return make_two_mode_problem()


def tiny_config(**overrides):
    values = dict(
        population_size=10,
        max_generations=10,
        convergence_generations=6,
    )
    values.update(overrides)
    return SynthesisConfig(**values)


def tiny_spec(**overrides):
    values = dict(
        name="smoke",
        instances=["two_mode"],
        runs=1,
        base_seed=3,
        config=tiny_config(),
        checkpoint_every=2,
    )
    values.update(overrides)
    return CampaignSpec(**values)


def loader_for(problem):
    return lambda name: problem


class TestSmokeRun:
    def test_full_campaign(self, problem, tmp_path):
        spec = tiny_spec(runs=2)
        outcome = run_campaign(
            spec, tmp_path / "run", problem_loader=loader_for(problem)
        )
        assert outcome.completed == 4  # 2 runs x 2 policies
        assert outcome.failed == 0
        for job in spec.jobs():
            result = outcome.results[job.job_id]
            assert result.power > 0
            assert result.history
            assert result.perf  # SynthesisResult.perf counters present
            # Result record survives on disk and round-trips.
            stored = load_result(tmp_path / "run", job.job_id)
            assert JobResult.from_dict(stored).to_dict() == result.to_dict()
        events = read_events(events_path(tmp_path / "run"))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        assert kinds.count("job_finished") == 4
        assert "generation" in kinds and "checkpointed" in kinds

    def test_spec_is_persisted(self, problem, tmp_path):
        spec = tiny_spec()
        run_campaign(
            spec, tmp_path / "run", problem_loader=loader_for(problem)
        )
        assert CampaignSpec.load(
            spec_path(tmp_path / "run")
        ).to_dict() == spec.to_dict()

    def test_differing_spec_in_same_dir_rejected(self, problem, tmp_path):
        run_campaign(
            tiny_spec(), tmp_path / "run", problem_loader=loader_for(problem)
        )
        with pytest.raises(CampaignError, match="different campaign spec"):
            CampaignRunner(
                tiny_spec(base_seed=99),
                tmp_path / "run",
                problem_loader=loader_for(problem),
            )

    def test_rerun_skips_completed_jobs(self, problem, tmp_path):
        spec = tiny_spec()
        first = run_campaign(
            spec, tmp_path / "run", problem_loader=loader_for(problem)
        )
        again = run_campaign(
            spec, tmp_path / "run", problem_loader=loader_for(problem)
        )
        assert again.completed == first.completed
        for job_id, result in first.results.items():
            assert again.results[job_id].to_dict() == result.to_dict()
        skipped = [
            e
            for e in read_events(events_path(tmp_path / "run"))
            if e["event"] == "job_skipped"
        ]
        assert len(skipped) == first.completed


class TestPoolFailure:
    def test_dead_pool_falls_back_and_the_job_finishes(
        self, problem, tmp_path, monkeypatch
    ):
        # Evaluation is a pure function of the genome, so a job whose
        # pool dies mid-run finishes in-process with the result the
        # serial campaign computes, in one pass.
        serial = run_campaign(
            tiny_spec(),
            tmp_path / "serial",
            problem_loader=loader_for(problem),
        )
        backends = []
        real_backend_for = cosynthesis.backend_for

        def capture(*args, **kwargs):
            backend = real_backend_for(*args, **kwargs)
            backends.append(backend)
            return backend

        killed = []

        def kill_pool_once(record):
            if record["event"] == "generation" and not killed:
                pool = backends[-1]._pool
                pool.terminate()
                pool.join()
                killed.append(record["job_id"])

        monkeypatch.setattr(cosynthesis, "backend_for", capture)
        with pytest.warns(RuntimeWarning, match="in-process"):
            pooled = run_campaign(
                tiny_spec(config=tiny_config(jobs=2)),
                tmp_path / "pooled",
                problem_loader=loader_for(problem),
                on_event=kill_pool_once,
            )
        assert len(backends) == 2 and len(killed) == 1
        assert pooled.failed == 0 and pooled.completed == 2
        for job_id, expected in serial.results.items():
            got = pooled.results[job_id]
            assert got.power == expected.power
            assert got.history == expected.history
            assert got.best_genes == expected.best_genes
            assert got.evaluations == expected.evaluations
            fallbacks = 1 if job_id in killed else 0
            assert got.perf["pool_fallbacks"] == fallbacks
        kinds = [
            (e["event"], e.get("job_id"))
            for e in read_events(events_path(tmp_path / "pooled"))
        ]
        for job_id in serial.results:
            assert kinds.count(("job_started", job_id)) == 1
            assert kinds.count(("job_finished", job_id)) == 1
        assert not any(kind == "job_failed" for kind, _ in kinds)
        summary = load_run_summary(tmp_path / "pooled")
        assert summary["perf"]["pool_fallbacks"] == 1


class TestJobResultRecords:
    def _record(self, problem, tmp_path):
        outcome = run_campaign(
            tiny_spec(probability_settings=[True]),
            tmp_path / "run",
            problem_loader=loader_for(problem),
        )
        (result,) = outcome.job_results()
        return result, load_result(tmp_path / "run", result.job_id)

    def test_stored_retry_count_is_dropped(self, problem, tmp_path):
        # Records written while campaign jobs were retried on a fresh
        # pool carry an attempt count; they still load.
        result, record = self._record(problem, tmp_path)
        record["attempts"] = 2
        assert JobResult.from_dict(record).to_dict() == result.to_dict()

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
    def test_bool_or_float_version_refused(self, problem, tmp_path, version):
        _, record = self._record(problem, tmp_path)
        record["version"] = version
        with pytest.raises(CampaignError, match="result version"):
            JobResult.from_dict(record)


class TestFailureIsolation:
    def test_job_failure_does_not_abort_campaign(
        self, problem, tmp_path, monkeypatch
    ):
        calls = {"n": 0}

        class FailsFirst(MultiModeSynthesizer):
            def run(self, resume=None, on_generation=None):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise SynthesisError("no feasible mapping")
                return super().run(
                    resume=resume, on_generation=on_generation
                )

        monkeypatch.setattr(
            runner_mod, "MultiModeSynthesizer", FailsFirst
        )
        spec = tiny_spec()
        outcome = run_campaign(
            spec, tmp_path / "run", problem_loader=loader_for(problem)
        )
        assert outcome.completed == 1
        assert outcome.failed == 1
        (failure,) = outcome.failures.values()
        assert "no feasible mapping" in failure

    def test_unknown_instance_fails_that_job_only(self, tmp_path):
        problem = make_two_mode_problem()

        def loader(name):
            if name == "bogus":
                raise KeyError(f"unknown problem {name!r}")
            return problem

        spec = tiny_spec(
            instances=["two_mode", "bogus"],
            probability_settings=[False],
        )
        outcome = run_campaign(
            spec, tmp_path / "run", problem_loader=loader
        )
        assert outcome.completed == 1
        assert list(outcome.failures) == ["bogus-none-noprob-s3"]
        assert "unknown instance" in outcome.failures["bogus-none-noprob-s3"]

    def test_resume_campaign_requires_spec(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign spec"):
            resume_campaign(tmp_path)


class TestProblemMemo:
    def test_policies_share_one_problem_and_its_mode_cache(
        self, tmp_path, monkeypatch
    ):
        # Mode-cache entries are Ψ-independent: the runner loads each
        # instance once, so its uniform and Ψ-aware jobs evaluate on
        # one Problem and share that problem's cache.
        loads = []
        runs = []

        def loader(name):
            loads.append(name)
            return make_two_mode_problem()

        class Recording(MultiModeSynthesizer):
            def run(self, resume=None, on_generation=None):
                runs.append(
                    (
                        self.config.use_probabilities,
                        self.problem,
                        mode_cache_for(self.problem, self.config),
                    )
                )
                return super().run(
                    resume=resume, on_generation=on_generation
                )

        monkeypatch.setattr(runner_mod, "MultiModeSynthesizer", Recording)
        outcome = run_campaign(
            tiny_spec(runs=2), tmp_path / "run", problem_loader=loader
        )
        assert outcome.completed == 4
        assert loads == ["two_mode"]
        assert sorted(policy for policy, _, _ in runs) == [
            False,
            False,
            True,
            True,
        ]
        (_, problem, cache), *rest = runs
        for _, other_problem, other_cache in rest:
            assert other_problem is problem
            assert other_cache is cache


class TestFinalCheckpoint:
    def test_last_generation_is_always_checkpointed(
        self, problem, tmp_path
    ):
        # Regression: with checkpoint_every=4 and max_generations=6 the
        # cadence alone would last snapshot generation 4, leaving
        # generations 5-6 unprotected against a crash landing between
        # the final snapshot and job completion.
        spec = tiny_spec(
            probability_settings=[True],
            checkpoint_every=4,
            config=tiny_config(
                max_generations=6, convergence_generations=100
            ),
        )
        run_campaign(
            spec, tmp_path / "run", problem_loader=loader_for(problem)
        )
        checkpointed = [
            e["generation"]
            for e in read_events(events_path(tmp_path / "run"))
            if e["event"] == "checkpointed"
        ]
        assert 4 in checkpointed
        assert checkpointed[-1] == 6


class TestRunSummary:
    def test_summary_exported_on_finish(self, problem, tmp_path):
        spec = tiny_spec()
        outcome = run_campaign(
            spec, tmp_path / "run", problem_loader=loader_for(problem)
        )
        summary = load_run_summary(tmp_path / "run")
        assert summary["version"] == 1
        assert summary["campaign"] == "smoke"
        assert summary["interrupted"] is False
        assert summary["jobs"] == {
            "total": 2,
            "completed": 2,
            "failed": 0,
            "pending": 0,
        }
        assert set(summary["job_results"]) == set(outcome.results)
        for job_id, row in summary["job_results"].items():
            assert row["power"] == outcome.results[job_id].power
            assert row["feasible"] is True
        # The aggregate engine perf counters made it into the document.
        assert summary["perf"]["evaluations"] > 0
        assert summary["perf"]["phase_seconds"]
        for phase, modes in summary["perf"][
            "mode_phase_seconds"
        ].items():
            assert sum(modes.values()) == pytest.approx(
                summary["perf"]["phase_seconds"][phase]
            )
        # Campaign metrics are dumped alongside (process-global
        # registry, so only lower bounds are stable across a test run).
        counters = summary["metrics"]["counters"]
        assert counters["campaign_jobs_finished_total"] >= 2
        assert counters["ga_generations_total"] >= 2

    def test_summary_includes_failures(self, problem, tmp_path):
        def loader(name):
            if name == "bogus":
                raise KeyError(f"unknown problem {name!r}")
            return problem

        spec = tiny_spec(
            instances=["two_mode", "bogus"],
            probability_settings=[False],
        )
        run_campaign(spec, tmp_path / "run", problem_loader=loader)
        summary = load_run_summary(tmp_path / "run")
        assert summary["jobs"]["completed"] == 1
        assert summary["jobs"]["failed"] == 1
        assert "bogus-none-noprob-s3" in summary["failures"]

    def test_summary_written_on_interrupt(self, problem, tmp_path):
        def explode(event):
            if event["event"] == "generation":
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                tiny_spec(),
                tmp_path / "run",
                problem_loader=loader_for(problem),
                on_event=explode,
            )
        summary = load_run_summary(tmp_path / "run")
        assert summary["interrupted"] is True
        assert summary["jobs"]["completed"] == 0
        # The finished run overwrites the interrupted snapshot.
        resume_campaign(
            tmp_path / "run", problem_loader=loader_for(problem)
        )
        final = load_run_summary(tmp_path / "run")
        assert final["interrupted"] is False
        assert final["jobs"]["completed"] == 2

    def test_summary_roundtrips_through_json_load(self, problem, tmp_path):
        import json

        run_campaign(
            tiny_spec(probability_settings=[True]),
            tmp_path / "run",
            problem_loader=loader_for(problem),
        )
        with open(run_summary_path(tmp_path / "run")) as handle:
            assert json.load(handle)["version"] == 1
