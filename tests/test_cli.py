"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def _assert_flags_retired(capsys, *flags):
    """``synthesize --help`` lists none of ``flags``; each is rejected."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["synthesize", "--help"])
    help_text = capsys.readouterr().out
    for flag in flags:
        assert flag not in help_text
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synthesize", "mul1", flag])


def _clean_error(*argv):
    """Run ``repro-mm argv`` in a child; its one stderr line.

    The child must fail with one ``repro-mm: error:`` line and no
    traceback.
    """
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    env = dict(os.environ)
    source = str(pathlib.Path(repro.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [source] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode != 0
    assert "Traceback" not in child.stderr
    (line,) = child.stderr.strip().splitlines()
    assert line.startswith("repro-mm: error: ")
    return line


class TestParser:
    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert args.runs == 5

    def test_table2_only_filter(self):
        args = build_parser().parse_args(
            ["table2", "--only", "mul1", "mul2", "--runs", "2"]
        )
        assert args.only == ["mul1", "mul2"]
        assert args.runs == 2

    def test_only_rejects_unknown_instance(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--only", "mul99"])

    def test_synthesize_options(self):
        args = build_parser().parse_args(
            [
                "synthesize",
                "mul3",
                "--dvs",
                "gradient",
                "--no-probabilities",
                "--seed",
                "9",
            ]
        )
        assert args.problem == "mul3"
        assert args.dvs == "gradient"
        assert not args.probabilities
        assert args.seed == 9

    def test_async_pool_flag(self, capsys):
        # Retired with the work-stealing pool: not offered, rejected.
        _assert_flags_retired(capsys, "--no-async-pool")

    def test_no_mode_cache_flag(self, capsys):
        # Retired with the monolithic evaluator: not offered, rejected.
        _assert_flags_retired(capsys, "--no-mode-cache")

    def test_vector_dvs_flags(self, capsys):
        # Retired with the object-graph descent and the warm start.
        _assert_flags_retired(capsys, "--no-vector-dvs", "--dvs-warm-start")

    def test_speculation_flags(self, capsys):
        # Speculation is early dispatch on the pool, with no switch.
        _assert_flags_retired(
            capsys, "--no-speculation", "--speculation-depth"
        )

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_options(self):
        args = build_parser().parse_args(
            ["campaign", "spec.json", "--out", "runs/demo", "--quiet"]
        )
        assert args.command == "campaign"
        assert args.spec == "spec.json"
        assert args.out == "runs/demo"
        assert args.quiet

    def test_campaign_resume_and_report(self):
        args = build_parser().parse_args(["campaign", "--resume", "runs/x"])
        assert args.resume == "runs/x"
        assert args.spec is None
        args = build_parser().parse_args(["campaign", "--report", "runs/x"])
        assert args.report == "runs/x"


class TestInspect:
    def test_inspect_suite_instance(self, capsys):
        assert main(["inspect", "mul9"]) == 0
        out = capsys.readouterr().out
        assert "problem 'mul9'" in out
        assert "architecture" in out
        assert "transitions" in out

    def test_inspect_smartphone(self, capsys):
        assert main(["inspect", "smartphone"]) == 0
        out = capsys.readouterr().out
        assert "rlc" in out
        assert "GPP" in out


class TestUnknownInstance:
    def test_error_lists_valid_names(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["inspect", "mul99"])
        message = str(excinfo.value)
        assert "unknown problem 'mul99'" in message
        assert "smartphone" in message  # full list of valid names


class TestSynthesize:
    def test_synthesize_small_instance(self, capsys):
        code = main(
            [
                "synthesize",
                "mul9",
                "--population",
                "10",
                "--generations",
                "8",
                "--convergence",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "average power" in out
        assert "generations:" in out


class TestSimulate:
    def test_simulate_command(self, capsys):
        code = main(
            [
                "simulate",
                "mul9",
                "--horizon",
                "50",
                "--population",
                "10",
                "--generations",
                "8",
                "--convergence",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated power" in out
        assert "Equation (1)" in out

    @pytest.mark.parametrize(
        "horizon",
        ["nan", "inf", "-5", "0"],
        ids=["nan", "inf", "negative", "zero"],
    )
    def test_bad_horizon_rejected_before_synthesis(
        self, monkeypatch, horizon
    ):
        from repro.synthesis.cosynthesis import MultiModeSynthesizer

        def no_synthesis(self, *args, **kwargs):
            raise AssertionError("synthesis ran on a bad horizon")

        monkeypatch.setattr(MultiModeSynthesizer, "run", no_synthesis)
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "mul1", "--horizon", horizon])
        message = excinfo.value.code
        assert isinstance(message, str)  # printed, exit status 1
        assert "\n" not in message
        assert message.startswith(
            "repro-mm: error: --horizon must be a finite time > 0 s, got "
        )


class TestGanttFlag:
    def test_synthesize_with_gantt(self, capsys):
        code = main(
            [
                "synthesize",
                "mul9",
                "--gantt",
                "--population",
                "10",
                "--generations",
                "8",
                "--convergence",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "|" in out

    def test_save_mapping(self, capsys, tmp_path):
        target = tmp_path / "mapping.json"
        code = main(
            [
                "synthesize",
                "mul9",
                "--save-mapping",
                str(target),
                "--population",
                "10",
                "--generations",
                "8",
                "--convergence",
                "4",
            ]
        )
        assert code == 0
        assert target.exists()
        import json

        data = json.loads(target.read_text())
        assert data["problem"] == "mul9"


class TestCampaign:
    def _write_spec(self, tmp_path):
        import json

        from repro.runtime.spec import CampaignSpec
        from repro.synthesis.config import SynthesisConfig

        spec = CampaignSpec(
            name="cli-smoke",
            instances=["mul9"],
            runs=1,
            base_seed=400,
            config=SynthesisConfig(
                population_size=10,
                max_generations=8,
                convergence_generations=4,
            ),
            checkpoint_every=2,
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        assert json.loads(path.read_text())["name"] == "cli-smoke"
        return path

    def test_a_reader_that_leaves_does_not_stop_the_campaign(self, tmp_path):
        # ``repro-mm campaign SPEC --out DIR | head -1``: the reader
        # takes the first progress line and exits.  The campaign must
        # finish anyway, with a complete stream and summary.
        import json
        import os
        import pathlib
        import subprocess
        import sys

        import repro
        from repro.obs.summary import load_run_summary
        from repro.runtime.events import events_path, read_events

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "pipe",
                    "instances": ["mul1", "mul9"],
                    "runs": 1,
                    "base_seed": 11,
                    "config": {
                        "population_size": 10,
                        "max_generations": 6,
                        "convergence_generations": 10,
                    },
                }
            )
        )
        run_dir = tmp_path / "run"
        argv = ["campaign", str(spec), "--out", str(run_dir)]
        env = dict(os.environ)
        source = str(pathlib.Path(repro.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            [source] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with open(tmp_path / "stderr", "w") as stderr:
            child = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *argv],
                env=env,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
            )
            try:
                first = child.stdout.readline()
                child.stdout.close()
                assert child.wait(timeout=120) == 0
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        assert "campaign 'pipe' started" in first
        errors = (tmp_path / "stderr").read_text()
        assert "Traceback" not in errors
        assert "BrokenPipeError" not in errors
        assert read_events(events_path(run_dir))[-1]["event"] == (
            "campaign_finished"
        )
        summary = load_run_summary(run_dir)
        assert summary["interrupted"] is False
        assert summary["jobs"]["completed"] == 4

    def test_init_spec_writes_loadable_template(self, capsys, tmp_path):
        from repro.runtime.spec import CampaignSpec

        target = tmp_path / "template.json"
        assert main(["campaign", "--init-spec", str(target)]) == 0
        assert "template campaign spec" in capsys.readouterr().out
        template = CampaignSpec.load(target)
        assert template.jobs()

    def test_run_report_resume_cycle(self, capsys, tmp_path):
        from repro.obs.status import format_event
        from repro.runtime.events import events_path, read_events

        spec = self._write_spec(tmp_path)
        run_dir = tmp_path / "run"
        code = main(["campaign", str(spec), "--out", str(run_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign done: 2 jobs completed, 0 failed" in out
        assert "Campaign 'cli-smoke'" in out
        assert "mul9" in out
        # Progress is the --tail rendering of the job-level events.
        progress = [
            format_event(event)
            for event in read_events(events_path(run_dir))
            if event["event"] in ("campaign_started", "job_started", "job_finished")
        ]
        assert out.splitlines()[: len(progress)] == progress

        # Reporting needs only the event stream.
        assert main(["campaign", "--report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Campaign report" in out
        assert "mul9" in out

        # Resuming a finished campaign skips every job.
        assert main(["campaign", "--resume", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "already complete, skipped" in out
        assert "campaign done: 2 jobs completed" in out

    def test_report_with_one_of_two_jobs_finished(self, capsys, tmp_path):
        from repro.runtime.runner import run_campaign
        from repro.runtime.spec import CampaignSpec

        class Killed(KeyboardInterrupt):
            pass

        def kill_after_first_job(event):
            if event["event"] == "job_finished":
                raise Killed

        spec = CampaignSpec.load(self._write_spec(tmp_path))
        run_dir = tmp_path / "run"
        with pytest.raises(Killed):
            run_campaign(spec, run_dir, on_event=kill_after_first_job)

        assert main(["campaign", "--report", str(run_dir)]) == 0
        row = next(
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("mul9")
        )
        assert row.split()[-3:] == ["n/a", "n/a", "n/a"]

    def test_resume_with_a_damaged_result_is_a_clean_error(self, tmp_path):
        import json

        spec = self._write_spec(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["campaign", str(spec), "--out", str(run_dir), "--quiet"]) == 0
        damaged = sorted((run_dir / "results").glob("*.json"))[0]
        record = json.loads(damaged.read_text())
        del record["power"]
        damaged.write_text(json.dumps(record))

        line = _clean_error("campaign", "--resume", str(run_dir), "--quiet")
        assert "power" in line and damaged.stem in line

    @pytest.mark.parametrize(
        "malformed",
        [
            {"dvs_methods": ["bogus"]},
            {"config": {"dvs": "bogus"}},
            {"config": {"population_size": 1}},
            {"config": {"populaton_size": 10}},
        ],
        ids=["dvs-methods", "config-dvs", "config-population", "config-key"],
    )
    def test_a_malformed_spec_is_a_clean_error(self, tmp_path, malformed):
        import json

        spec = json.dumps({"name": "bad", "instances": ["mul9"], **malformed})
        path = tmp_path / "spec.json"
        path.write_text(spec)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "spec.json").write_text(spec)
        (field,) = malformed
        for argv in (
            ["campaign", str(path), "--out", str(tmp_path / "fresh")],
            ["campaign", "--resume", str(run_dir)],
        ):
            line = _clean_error(*argv)
            assert f"field '{field}'" in line

    def test_report_without_events_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "--report", str(tmp_path / "nowhere")])

    def test_missing_arguments_rejected(self):
        with pytest.raises(SystemExit, match="campaign needs"):
            main(["campaign"])

    def test_unknown_instance_in_spec_fails_job(self, capsys, tmp_path):
        import json

        spec = self._write_spec(tmp_path)
        data = json.loads(spec.read_text())
        data["instances"] = ["mul99"]
        spec.write_text(json.dumps(data))
        code = main(["campaign", str(spec), "--out", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert code == 1  # failures reported via exit code
        assert "FAILED" in out
        assert "unknown instance" in out


class TestCampaignStatusTail:
    """--status / --tail work from an event stream alone."""

    def _write_run_dir(self, tmp_path, *, finished):
        import json

        events = [
            {"seq": 0, "ts": 100.0, "event": "campaign_started",
             "campaign": "obs", "total_jobs": 3, "pending_jobs": 3},
            {"seq": 1, "ts": 100.0, "event": "job_started",
             "job_id": "a", "attempt": 1, "resumed_from": 0},
            {"seq": 2, "ts": 110.0, "event": "job_finished",
             "job_id": "a", "power": 0.05, "cpu_time": 9.5,
             "generations": 8, "evaluations": 80},
            {"seq": 3, "ts": 110.0, "event": "job_started",
             "job_id": "b", "attempt": 1, "resumed_from": 0},
            {"seq": 4, "ts": 111.0, "event": "job_failed",
             "job_id": "b", "error": "no feasible mapping"},
            {"seq": 5, "ts": 111.0, "event": "job_started",
             "job_id": "c", "attempt": 1, "resumed_from": 0},
            {"seq": 6, "ts": 115.0, "event": "generation",
             "job_id": "c", "generation": 4, "best_fitness": 1.25,
             "evaluations": 40},
        ]
        if finished:
            events += [
                {"seq": 7, "ts": 120.0, "event": "job_finished",
                 "job_id": "c", "power": 0.04, "cpu_time": 8.0,
                 "generations": 8, "evaluations": 80},
                {"seq": 8, "ts": 120.0, "event": "campaign_finished",
                 "campaign": "obs", "completed_jobs": 2,
                 "failed_jobs": 1},
            ]
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        with open(run_dir / "events.jsonl", "w") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        return run_dir

    def test_status_mid_campaign(self, capsys, tmp_path):
        run_dir = self._write_run_dir(tmp_path, finished=False)
        assert main(["campaign", "--status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign 'obs': running" in out
        assert "2/3 jobs (67%)" in out
        assert "1 completed" in out and "1 failed" in out
        assert "running: c (generation 4)" in out
        assert "failed: b: no feasible mapping" in out
        assert "eta:" in out

    def test_status_finished_campaign(self, capsys, tmp_path):
        run_dir = self._write_run_dir(tmp_path, finished=True)
        assert main(["campaign", "--status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign 'obs': finished" in out
        assert "3/3 jobs (100%)" in out
        assert "eta" not in out

    def test_status_missing_run_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no event stream"):
            main(["campaign", "--status", str(tmp_path / "nowhere")])

    def test_status_without_summary_skips_pool_stats(
        self, capsys, tmp_path
    ):
        run_dir = self._write_run_dir(tmp_path, finished=False)
        assert main(["campaign", "--status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "pool:" not in out

    def test_status_renders_na_for_pr3_era_summary(
        self, capsys, tmp_path
    ):
        # Regression: --status used to crash formatting
        # pool_utilisation when the field is absent from an older
        # run_summary.json (pre-dispatch-window schema, or a run that
        # fell back to serial mid-campaign).
        import pathlib
        import shutil

        fixture = (
            pathlib.Path(__file__).resolve().parent
            / "fixtures"
            / "run_summary_pr3.json"
        )
        run_dir = self._write_run_dir(tmp_path, finished=True)
        shutil.copy(fixture, run_dir / "run_summary.json")
        assert main(["campaign", "--status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "pool: workers n/a, utilisation n/a" in out
        assert "in-process:" in out

    def test_tail_no_follow_prints_existing_events(self, capsys, tmp_path):
        run_dir = self._write_run_dir(tmp_path, finished=False)
        code = main(["campaign", "--tail", str(run_dir), "--no-follow"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert "campaign 'obs' started: 3/3 jobs pending" in lines[0]
        assert "[a] finished: 50.000 mW" in out
        assert "[b] FAILED: no feasible mapping" in out
        assert "[c] generation 4" in out

    def test_tail_follow_stops_at_campaign_end(self, capsys, tmp_path):
        # On a finished stream, follow mode terminates by itself at the
        # campaign_finished event — no --no-follow needed.
        run_dir = self._write_run_dir(tmp_path, finished=True)
        assert main(["campaign", "--tail", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1].endswith(
            "campaign 'obs' finished: 2 completed, 1 failed"
        )

    def test_tail_missing_run_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no event stream"):
            main(
                ["campaign", "--tail", str(tmp_path / "gone"),
                 "--no-follow"]
            )

    def test_status_on_real_run_dir(self, capsys, tmp_path):
        # End-to-end: a real (tiny) campaign leaves a run directory
        # that --status reads back as finished, with a summary on disk.
        from repro.obs.summary import load_run_summary
        from repro.runtime.spec import CampaignSpec
        from repro.synthesis.config import SynthesisConfig

        spec = CampaignSpec(
            name="cli-status",
            instances=["mul9"],
            runs=1,
            base_seed=7,
            config=SynthesisConfig(
                population_size=10,
                max_generations=4,
                convergence_generations=10,
            ),
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        run_dir = tmp_path / "run"
        assert main(
            ["campaign", str(path), "--out", str(run_dir), "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(["campaign", "--status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign 'cli-status': finished" in out
        assert "2/2 jobs (100%)" in out
        assert load_run_summary(run_dir)["jobs"]["completed"] == 2


class TestTables:
    def test_table1_single_instance(self, capsys):
        code = main(
            [
                "table1",
                "--only",
                "mul9",
                "--runs",
                "1",
                "--population",
                "10",
                "--generations",
                "8",
                "--convergence",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "mul9" in out
        assert "vs paper" in out

    def test_table3_smartphone(self, capsys):
        code = main(
            [
                "table3",
                "--runs",
                "1",
                "--population",
                "6",
                "--generations",
                "2",
                "--convergence",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "w/o DVS" in out
        assert "with DVS" in out
        assert "overall reduction" in out


class TestProblemsCommand:
    def test_parser_accepts_problems(self):
        args = build_parser().parse_args(["problems"])
        assert args.command == "problems"

    def test_lists_registry_with_mode_counts(self, capsys):
        assert main(["problems"]) == 0
        out = capsys.readouterr().out
        header, *rows = out.strip().splitlines()
        assert "modes" in header and "genes" in header
        names = [row.split()[0] for row in rows]
        assert "mul1" in names
        assert "smartphone" in names
        smartphone_row = next(r for r in rows if r.startswith("smartphone"))
        assert smartphone_row.split()[1] == "8"


class TestAdaptCommand:
    def test_adapt_command_removed(self, capsys):
        # The online Ψ-adaptation demo is retired; `adapt` is a usage
        # error like any other unknown command.
        with pytest.raises(SystemExit) as excinfo:
            main(["adapt", "mul1"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'adapt'" in capsys.readouterr().err
