"""CampaignRunner behaviour: queue execution, durability, failures."""

import json
import multiprocessing
import os
import signal

import pytest

from repro.cli import main
from repro.errors import CampaignError, SynthesisError
from repro.eval.cache import mode_cache_for
from repro.obs.status import campaign_status, format_status
from repro.obs.summary import load_run_summary, run_summary_path
from repro.runtime import runner as runner_mod
from repro.runtime.checkpoint import load_result, result_path, spec_path
from repro.runtime.events import events_path, read_events
from repro.runtime.runner import (
    CampaignRunner,
    JobResult,
    resume_campaign,
    run_campaign,
)
from repro.runtime.spec import CampaignSpec
from repro.synthesis import cosynthesis
from repro.synthesis.config import DvsMethod, SynthesisConfig
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
            # The pool goes away behind the backend's back.  Closed and
            # joined, not terminated: Pool.terminate() SIGTERMs busy
            # workers, and one stopped while it writes a result leaves
            # the result queue's lock taken, which hangs the terminate.
            if record["event"] == "generation" and not killed:
                pool = backends[-1]._pool
                pool.close()
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

    def test_record_without_a_field_fails_the_resume_cleanly(
        self, problem, tmp_path
    ):
        # A damaged record used to abort the re-run with a bare
        # TypeError from the dataclass constructor.
        result, record = self._record(problem, tmp_path)
        del record["power"]
        path = result_path(tmp_path / "run", result.job_id)
        path.write_text(json.dumps(record))
        with pytest.raises(CampaignError) as excinfo:
            resume_campaign(tmp_path / "run", problem_loader=loader_for(problem))
        message = str(excinfo.value)
        assert "power" in message
        assert result.job_id in message
        assert str(path) in message


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
        # one Problem and share that problem's cache.  One usable CPU
        # keeps the jobs in this process, where the closures below
        # can record them.
        monkeypatch.setattr(runner_mod, "usable_cpus", lambda: 1)
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
        # The counters this campaign added to the registry are dumped
        # alongside.
        counters = summary["metrics"]["counters"]
        assert counters["campaign_jobs_finished_total"] == 2
        assert counters["ga_generations_total"] >= 2
        assert summary["metrics"] == {"counters": counters}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_summary_counts_only_its_own_campaign(
        self, problem, tmp_path, monkeypatch, workers
    ):
        # Campaigns run back to back in one process record into one
        # registry; each summary's counters are its own campaign's.
        cpus(monkeypatch, workers)
        for name in ("first", "second"):
            run_campaign(
                tiny_spec(name=name, runs=2),
                tmp_path / name,
                problem_loader=loader_for(problem),
            )
            summary = load_run_summary(tmp_path / name)
            counters = summary["metrics"]["counters"]
            assert counters["campaign_jobs_finished_total"] == 4
            evaluations = sum(
                value
                for series, value in counters.items()
                if series.startswith("engine_evaluations_total")
            )
            assert evaluations == summary["perf"]["evaluations"]

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


class TwoArgumentError(Exception):
    """Pickles, but does not unpickle: its constructor takes two values."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


def fingerprints(outcome):
    return {
        job_id: (
            result.power,
            result.evaluations,
            result.generations,
            result.history,
            result.best_genes,
            result.mode_powers,
        )
        for job_id, result in outcome.results.items()
    }


def cpus(monkeypatch, count):
    monkeypatch.setattr(runner_mod, "usable_cpus", lambda: count)


class TestWorkers:
    """Campaign workers, pinned to two usable CPUs on any host."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        cpus(monkeypatch, 2)

    def test_worker_count_is_capped_by_cpus_jobs_and_units(
        self, tmp_path, monkeypatch
    ):
        cases = [
            (1, 1, 4, 1),  # one usable CPU
            (8, 1, 1, 1),  # one unit
            (2, 2, 4, 1),  # jobs take every usable CPU
            (8, 2, 4, 4),
            (8, 1, 3, 3),
        ]
        for usable, jobs, runs, expected in cases:
            cpus(monkeypatch, usable)
            runner = CampaignRunner(
                tiny_spec(runs=runs, config=tiny_config(jobs=jobs)),
                tmp_path / f"run-{usable}-{jobs}-{runs}",
            )
            assert runner._worker_count(runs) == expected
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert runner._worker_count(runs) == 1  # no fork: in-process

    def test_keyboard_interrupt_in_on_event_reaps_every_worker(
        self, problem, tmp_path
    ):
        def explode(event):
            if event["event"] == "generation":
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                tiny_spec(runs=2),
                tmp_path / "run",
                problem_loader=loader_for(problem),
                on_event=explode,
            )
        assert multiprocessing.active_children() == []
        events = read_events(events_path(tmp_path / "run"))
        assert events[0]["workers"] == 2
        assert events[-1]["event"] == "campaign_interrupted"
        assert load_run_summary(tmp_path / "run")["interrupted"] is True

    def test_a_second_interrupt_while_stopping_still_reaps_every_worker(
        self, problem, tmp_path, monkeypatch
    ):
        # Workers that ignore SIGTERM keep the parent in its grace wait,
        # which is where the second signal lands (``timeout`` signals a
        # process and then its group).
        real_init = runner_mod._init_forked_worker

        def stubborn():
            real_init()
            signal.signal(signal.SIGTERM, signal.SIG_IGN)

        monkeypatch.setattr(runner_mod, "_init_forked_worker", stubborn)
        monkeypatch.setattr(runner_mod, "STOP_GRACE_SECONDS", 1.0)
        sent = []

        def send_sigterm(signum, frame):
            sent.append(signum)
            if len(sent) == 2:
                signal.setitimer(signal.ITIMER_REAL, 0)
            os.kill(os.getpid(), signal.SIGTERM)

        spec = tiny_spec(
            runs=2,
            config=tiny_config(
                max_generations=5000, convergence_generations=5000
            ),
        )
        previous_alarm = signal.signal(signal.SIGALRM, send_sigterm)
        # A SIGTERM outside the campaign must not end the test process.
        previous_term = signal.signal(signal.SIGTERM, lambda *args: None)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5, 0.3)
            with pytest.raises(KeyboardInterrupt):
                run_campaign(
                    spec, tmp_path / "run", problem_loader=loader_for(problem)
                )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous_alarm)
            signal.signal(signal.SIGTERM, previous_term)
            alive = multiprocessing.active_children()
            for process in alive:
                process.kill()
                process.join()
        assert len(sent) == 2
        assert alive == []
        events = read_events(events_path(tmp_path / "run"))
        assert events[-1]["event"] == "campaign_interrupted"

    @pytest.mark.parametrize(
        "error,raised,message",
        [
            (
                RuntimeError("crash inside a job"),
                RuntimeError,
                "crash inside a job",
            ),
            # Re-raised as a RuntimeError carrying the worker's traceback.
            (
                TwoArgumentError("one", "two"),
                RuntimeError,
                "TwoArgumentError: one and two",
            ),
        ],
        ids=["pickles", "does-not-unpickle"],
    )
    def test_unexpected_exception_in_a_worker_job_is_raised_here(
        self, problem, tmp_path, monkeypatch, error, raised, message
    ):
        def crash(implementation):
            raise error

        monkeypatch.setattr(runner_mod, "validate_implementation", crash)
        with pytest.raises(raised) as excinfo:
            run_campaign(
                tiny_spec(runs=2),
                tmp_path / "run",
                problem_loader=loader_for(problem),
            )
        assert message in str(excinfo.value)
        assert multiprocessing.active_children() == []
        # The job's block is logged before the campaign stops.
        kinds = [e["event"] for e in read_events(events_path(tmp_path / "run"))]
        assert kinds.count("job_started") == 1
        assert kinds[-1] == "checkpointed"

    def test_a_worker_that_dies_mid_job_stops_the_campaign(
        self, problem, tmp_path, monkeypatch
    ):
        serial = run_campaign(
            tiny_spec(runs=2),
            tmp_path / "serial",
            problem_loader=loader_for(problem),
        )

        class DiesInOneJob(MultiModeSynthesizer):
            def run(self, resume=None, on_generation=None):
                if self.config.seed == 4 and self.config.use_probabilities:
                    os.kill(os.getpid(), signal.SIGKILL)
                return super().run(resume=resume, on_generation=on_generation)

        monkeypatch.setattr(runner_mod, "MultiModeSynthesizer", DiesInOneJob)
        run_dir = tmp_path / "run"
        with pytest.raises(CampaignError) as excinfo:
            run_campaign(
                tiny_spec(runs=2), run_dir, problem_loader=loader_for(problem)
            )
        message = str(excinfo.value)
        assert "'two_mode-none-prob-s4'" in message
        assert "status -9" in message
        assert f"--resume {run_dir}" in message
        assert multiprocessing.active_children() == []
        assert read_events(events_path(run_dir))[-1]["event"] == (
            "campaign_interrupted"
        )
        assert load_run_summary(run_dir)["interrupted"] is True

        monkeypatch.setattr(
            runner_mod, "MultiModeSynthesizer", MultiModeSynthesizer
        )
        resumed = resume_campaign(run_dir, problem_loader=loader_for(problem))
        # A resumed job re-evaluates genomes its lost cache held, so
        # its evaluation count may differ; its design may not.
        for job_id, expected in serial.results.items():
            got = resumed.results[job_id]
            for name in ("power", "history", "best_genes", "generations"):
                assert getattr(got, name) == getattr(expected, name), name

    def test_stress_more_workers_than_cpus(
        self, problem, tmp_path, monkeypatch
    ):
        spec = tiny_spec(runs=6)
        cpus(monkeypatch, 1)
        serial = run_campaign(
            spec, tmp_path / "serial", problem_loader=loader_for(problem)
        )
        cpus(monkeypatch, 4)

        def timed_out(signum, frame):
            raise TimeoutError("stress campaign took over 120 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(120)
        try:
            parallel = run_campaign(
                spec, tmp_path / "run", problem_loader=loader_for(problem)
            )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []
        assert list(parallel.results) == [job.job_id for job in spec.jobs()]
        assert fingerprints(parallel) == fingerprints(serial)

        events = read_events(events_path(tmp_path / "run"))
        assert events[0]["workers"] == 4
        assert [e["seq"] for e in events] == list(range(len(events)))
        finished = [e["job_id"] for e in events if e["event"] == "job_finished"]
        assert sorted(finished) == sorted(job.job_id for job in spec.jobs())
        # Each job's lines form one block: job_started .. job_finished.
        jobs = [e.get("job_id") for e in events[1:-1]]
        for job_id in finished:
            lines = [i for i, other in enumerate(jobs) if other == job_id]
            assert lines == list(range(lines[0], lines[-1] + 1))
            assert events[1 + lines[0]]["event"] == "job_started"
            assert events[1 + lines[-1]]["event"] == "job_finished"

    def test_each_process_loads_an_instance_once_and_runs_a_seed_on_it(
        self, tmp_path, monkeypatch
    ):
        record = tmp_path / "record.txt"

        def note(*values):
            with open(record, "a") as handle:
                handle.write(" ".join(str(value) for value in values) + "\n")

        def loader(name):
            problem = make_two_mode_problem()
            note("load", os.getpid(), name, id(problem))
            return problem

        class Recording(MultiModeSynthesizer):
            def run(self, resume=None, on_generation=None):
                note(
                    "run",
                    os.getpid(),
                    self.config.seed,
                    id(self.problem),
                    id(mode_cache_for(self.problem, self.config)),
                )
                return super().run(resume=resume, on_generation=on_generation)

        monkeypatch.setattr(runner_mod, "MultiModeSynthesizer", Recording)
        outcome = run_campaign(
            tiny_spec(runs=4), tmp_path / "run", problem_loader=loader
        )
        assert outcome.completed == 8
        lines = [line.split() for line in record.read_text().splitlines()]
        # ("load", pid, name, problem) and ("run", pid, seed, problem, cache)
        loads = [tuple(line[1:]) for line in lines if line[0] == "load"]
        runs = [tuple(line[1:]) for line in lines if line[0] == "run"]
        pids = [pid for pid, _, _ in loads]
        assert str(os.getpid()) not in pids  # the jobs ran in workers
        assert len(pids) == len(set(pids))  # no process loads twice
        by_seed = {}
        for pid, seed, problem, cache in runs:
            by_seed.setdefault(seed, set()).add((pid, problem, cache))
        assert len(by_seed) == 4
        for (one_run,) in by_seed.values():  # both policies: one process
            pid, problem, _ = one_run
            assert (pid, "two_mode", problem) in loads

    def test_status_times_jobs_by_the_worker_timestamps(
        self, problem, tmp_path
    ):
        spec = tiny_spec(
            runs=2,
            config=tiny_config(max_generations=30, convergence_generations=30),
        )
        outcome = run_campaign(
            spec, tmp_path / "run", problem_loader=loader_for(problem)
        )
        status = campaign_status(tmp_path / "run")
        assert status.workers == 2
        for job_id, result in outcome.results.items():
            # The GA's own wall time (``cpu_time``) lies between the
            # job's job_started and job_finished; a block stamped when
            # the parent logs it would span a millisecond or so.
            assert result.cpu_time > 0.01
            assert status.job_wall_seconds[job_id] >= result.cpu_time - 1e-3
        report = format_status(status)
        assert "workers: 2" in report
        assert "running:" not in report

    def test_report_rows_follow_the_spec_not_completion_order(
        self, tmp_path, monkeypatch, capsys
    ):
        spec = CampaignSpec(
            name="order",
            instances=["smartphone", "mul6"],
            dvs_methods=[DvsMethod.NONE],
            runs=1,
            base_seed=5,
            config=SynthesisConfig(
                population_size=6,
                max_generations=3,
                convergence_generations=3,
                local_search_budget_factor=0.1,
            ),
        )
        spec_file = tmp_path / "spec.json"
        spec.save(spec_file)

        def powers(text):
            # Example, modes and both powers; CPU seconds differ by run.
            return [
                [line.split()[i] for i in (0, 1, 2, 4, 6)]
                for line in text.splitlines()
                if line.startswith(("smartphone (", "mul6 ("))
            ]

        tables = {}
        for count in (1, 2):
            cpus(monkeypatch, count)
            run_dir = tmp_path / f"run-{count}"
            assert main(
                ["campaign", str(spec_file), "--out", str(run_dir), "--quiet"]
            ) == 0
            printed = capsys.readouterr().out
            assert main(["campaign", "--report", str(run_dir)]) == 0
            tables[count] = (powers(printed), powers(capsys.readouterr().out))
        finished = [
            e["instance"]
            for e in read_events(events_path(tmp_path / "run-2"))
            if e["event"] == "job_finished"
        ]
        assert finished[0] == "mul6"  # the workers finished out of order
        for rows in tables[2]:
            assert [row[0] for row in rows] == ["smartphone", "mul6"]
        assert tables[2] == tables[1]
