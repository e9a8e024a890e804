"""Smoke tests: the example scripts run and print sensible output.

The heavyweight smart phone case study is exercised with its module
constants monkey-patched down to a minimal budget.
"""

import runpy

import pytest

EXAMPLES = "examples"


class TestQuickstart:
    def test_runs_and_reports_savings(self, capsys, monkeypatch):
        module = runpy.run_path(
            f"{EXAMPLES}/quickstart.py", run_name="not_main"
        )
        module["main"]()
        out = capsys.readouterr().out
        assert "probability-neglecting synthesis" in out
        assert "probability-aware synthesis" in out
        assert "saves" in out


class TestMotivational:
    def test_reproduces_paper_numbers(self, capsys):
        module = runpy.run_path(
            f"{EXAMPLES}/motivational_example.py", run_name="not_main"
        )
        module["example_1"]()
        module["example_2"]()
        out = capsys.readouterr().out
        assert "26.7158" in out
        assert "15.7423" in out
        assert "41" in out
        assert "('PE1', 'CL0')" in out


class TestDvsHardwareCores:
    def test_shows_transform_and_scaling(self, capsys):
        module = runpy.run_path(
            f"{EXAMPLES}/dvs_hardware_cores.py", run_name="not_main"
        )
        module["main"]()
        out = capsys.readouterr().out
        assert "Fig. 5 transformation" in out
        assert "segment 0" in out
        assert "gradient" in out
        assert "core allocation" in out


class TestPersistSimulateBattery:
    @pytest.mark.slow
    def test_full_flow(self, capsys):
        module = runpy.run_path(
            f"{EXAMPLES}/persist_simulate_battery.py",
            run_name="not_main",
        )
        module["main"]()
        out = capsys.readouterr().out
        assert "saved and reloaded" in out
        assert "simulated power" in out
        assert "battery" in out


class TestSimulationValidation:
    @pytest.mark.slow
    def test_convergence_table(self, capsys):
        module = runpy.run_path(
            f"{EXAMPLES}/simulation_validation.py", run_name="not_main"
        )
        module["main"]()
        out = capsys.readouterr().out
        assert "convergence of simulated power" in out
        assert "Eq. (1)" in out


class TestCampaignResume:
    @pytest.mark.slow
    def test_kill_and_resume_bit_identical(self, capsys):
        module = runpy.run_path(
            f"{EXAMPLES}/campaign_resume.py", run_name="not_main"
        )
        module["main"]()
        out = capsys.readouterr().out
        assert "campaign killed mid-job (simulated crash)" in out
        assert "bit-identical to the uninterrupted campaign: True" in out
        assert "Recovered from events.jsonl" in out


class TestSmartphoneCaseStudy:
    @pytest.mark.slow
    def test_runs_with_tiny_budget(self, capsys):
        module = runpy.run_path(
            f"{EXAMPLES}/smartphone_case_study.py", run_name="not_main"
        )
        # Shrink the experiment drastically: one run, small GA.
        module["CONFIG"] = module["CONFIG"].with_updates(
            population_size=10,
            max_generations=8,
            convergence_generations=4,
        )
        main = module["main"]
        main.__globals__["RUNS"] = 1
        main.__globals__["CONFIG"] = module["CONFIG"]
        main()
        out = capsys.readouterr().out
        assert "smart phone OMSM" in out
        assert "overall" in out
