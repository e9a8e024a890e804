"""Acceptance: kill a campaign mid-job, resume, get bit-identical results.

The ISSUE acceptance criteria verified here:

* a campaign interrupted after N generations and resumed produces the
  same best fitness / history as an uninterrupted run with the same
  seeds (bit-identical, not just statistically close);
* the JSONL event log alone suffices to regenerate the Table-1 style
  comparison output.
"""

import dataclasses

import pytest

from repro.analysis.experiments import comparison_from_job_results
from repro.analysis.reporting import results_from_events
from repro.runtime import runner as runner_mod
from repro.runtime.checkpoint import checkpoint_path
from repro.runtime.events import events_path, read_events
from repro.runtime.runner import resume_campaign, run_campaign
from repro.runtime.spec import CampaignSpec
from repro.synthesis.config import SynthesisConfig

from tests.conftest import make_two_mode_problem


class _Kill(KeyboardInterrupt):
    """Stand-in for Ctrl-C / OOM-kill mid-campaign."""


@pytest.fixture(scope="module")
def problem():
    return make_two_mode_problem()


def _spec():
    return CampaignSpec(
        name="resume-acceptance",
        instances=["two_mode"],
        runs=2,
        base_seed=11,
        config=SynthesisConfig(
            population_size=10,
            max_generations=12,
            convergence_generations=8,
        ),
        checkpoint_every=2,
    )


def _interrupt_after(n_generations):
    seen = {"generations": 0}

    def on_event(event):
        if event["event"] == "generation":
            seen["generations"] += 1
            if seen["generations"] == n_generations:
                raise _Kill

    return on_event


@pytest.fixture(scope="module")
def reference(problem, tmp_path_factory):
    """The uninterrupted campaign every resumed run must match."""
    run_dir = tmp_path_factory.mktemp("reference")
    return run_campaign(
        _spec(), run_dir, problem_loader=lambda name: problem
    )


class TestKillResume:
    @pytest.mark.parametrize("kill_after", [3, 9])
    def test_resume_is_bit_identical(
        self, problem, tmp_path, reference, kill_after
    ):
        run_dir = tmp_path / "crashed"
        with pytest.raises(_Kill):
            run_campaign(
                _spec(),
                run_dir,
                problem_loader=lambda name: problem,
                on_event=_interrupt_after(kill_after),
            )
        events = read_events(events_path(run_dir))
        assert events[-1]["event"] == "campaign_interrupted"

        resumed = resume_campaign(
            run_dir, problem_loader=lambda name: problem
        )
        assert resumed.completed == reference.completed
        assert resumed.failed == 0
        for job_id, expected in reference.results.items():
            got = resumed.results[job_id]
            assert got.power == expected.power
            assert got.history == expected.history
            assert got.best_genes == expected.best_genes
            assert got.generations == expected.generations

    def test_a_resumed_job_counts_the_evaluations_it_ran(
        self, problem, tmp_path
    ):
        # A checkpoint carries no genome cache, so the resumed job
        # re-evaluates genomes the lost cache held: its results are
        # bit-identical, its evaluation count may only grow.
        spec = dataclasses.replace(
            _spec(), runs=1, probability_settings=[True]
        )
        (expected,) = run_campaign(
            spec, tmp_path / "reference", problem_loader=lambda name: problem
        ).job_results()
        with pytest.raises(_Kill):
            run_campaign(
                spec,
                tmp_path / "crashed",
                problem_loader=lambda name: problem,
                on_event=_interrupt_after(5),
            )
        (got,) = resume_campaign(
            tmp_path / "crashed", problem_loader=lambda name: problem
        ).job_results()
        assert got.resumed_from > 0
        for name in (
            "power", "history", "best_genes", "generations", "mode_powers"
        ):
            assert getattr(got, name) == getattr(expected, name)
        assert got.evaluations >= expected.evaluations

    def test_interrupted_job_actually_resumes_mid_flight(
        self, problem, tmp_path
    ):
        """The resumed job continues from its checkpoint, not from gen 0."""
        run_dir = tmp_path / "crashed"
        with pytest.raises(_Kill):
            run_campaign(
                _spec(),
                run_dir,
                problem_loader=lambda name: problem,
                on_event=_interrupt_after(5),
            )
        # A checkpoint for some job must have survived the kill.
        spec = _spec()
        checkpointed = [
            job.job_id
            for job in spec.jobs()
            if checkpoint_path(run_dir, job.job_id).exists()
        ]
        assert checkpointed
        resume_campaign(run_dir, problem_loader=lambda name: problem)
        started = [
            e
            for e in read_events(events_path(run_dir))
            if e["event"] == "job_started"
            and e["job_id"] == checkpointed[0]
        ]
        assert started[-1]["resumed_from"] > 0
        # Checkpoints are cleared once their job completes.
        assert not checkpoint_path(run_dir, checkpointed[0]).exists()

    def test_crash_between_final_checkpoint_and_completion(
        self, problem, tmp_path, monkeypatch
    ):
        """Kill in the window after the GA ends, before the result lands.

        With checkpoint_every=3 and max_generations=8 the periodic
        cadence alone would last snapshot generation 6; the runner must
        also checkpoint the final generation 8, so a crash between that
        snapshot and ``job_finished`` resumes from 8 (a no-op replay of
        zero generations) instead of re-running 7-8 — and the result is
        bit-identical to an uninterrupted run either way.
        """
        spec = CampaignSpec(
            name="crash-window",
            instances=["two_mode"],
            probability_settings=[True],
            runs=1,
            base_seed=11,
            config=SynthesisConfig(
                population_size=10,
                max_generations=8,
                convergence_generations=100,
            ),
            checkpoint_every=3,
        )
        reference = run_campaign(
            spec, tmp_path / "reference",
            problem_loader=lambda name: problem,
        )

        real_validate = runner_mod.validate_implementation
        calls = {"n": 0}

        def crash_once(implementation):
            calls["n"] += 1
            if calls["n"] == 1:
                raise _Kill
            return real_validate(implementation)

        monkeypatch.setattr(
            runner_mod, "validate_implementation", crash_once
        )
        run_dir = tmp_path / "crashed"
        with pytest.raises(_Kill):
            run_campaign(
                spec, run_dir, problem_loader=lambda name: problem
            )
        # The synthesis finished but the result never landed: the final
        # generation's snapshot must be on disk.
        (job,) = spec.jobs()
        assert checkpoint_path(run_dir, job.job_id).exists()

        resumed = resume_campaign(
            run_dir, problem_loader=lambda name: problem
        )
        restarts = [
            e
            for e in read_events(events_path(run_dir))
            if e["event"] == "job_started"
        ]
        assert restarts[-1]["resumed_from"] == 8
        expected = reference.results[job.job_id]
        got = resumed.results[job.job_id]
        assert got.power == expected.power
        assert got.history == expected.history
        assert got.best_genes == expected.best_genes
        assert got.generations == expected.generations

    def test_events_alone_rebuild_comparison(self, problem, tmp_path):
        run_dir = tmp_path / "crashed"
        with pytest.raises(_Kill):
            run_campaign(
                _spec(),
                run_dir,
                problem_loader=lambda name: problem,
                on_event=_interrupt_after(4),
            )
        resumed = resume_campaign(
            run_dir, problem_loader=lambda name: problem
        )
        (rebuilt,) = results_from_events(events_path(run_dir))
        live = comparison_from_job_results(resumed.job_results())
        assert rebuilt.example == live.example
        assert rebuilt.modes == live.modes
        assert rebuilt.runs == live.runs
        assert rebuilt.without.powers == live.without.powers
        assert (
            rebuilt.with_probabilities.powers
            == live.with_probabilities.powers
        )
        assert rebuilt.reduction_pct == live.reduction_pct
