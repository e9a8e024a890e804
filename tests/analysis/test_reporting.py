"""Tests for table formatting."""

from repro.analysis.experiments import (
    ComparisonResult,
    PolicyOutcome,
)
from repro.analysis.paper_data import TABLE1
from repro.analysis.reporting import (
    format_comparison_table,
    format_paper_comparison,
    format_smartphone_table,
)


def fake_result(example="mul1", modes=4, p_without=8e-3, p_with=7e-3):
    without = PolicyOutcome(
        powers=[p_without], cpu_times=[1.0], feasible=[True]
    )
    with_p = PolicyOutcome(
        powers=[p_with], cpu_times=[1.2], feasible=[True]
    )
    return ComparisonResult(
        example=example,
        modes=modes,
        without=without,
        with_probabilities=with_p,
        runs=1,
    )


class TestComparisonTable:
    def test_contains_rows_and_average(self):
        text = format_comparison_table(
            [fake_result(), fake_result("mul2", 4, 4e-3, 3e-3)]
        )
        assert "mul1 (4)" in text
        assert "mul2 (4)" in text
        assert "average" in text
        assert "Reduc." in text

    def test_reduction_value_printed(self):
        text = format_comparison_table([fake_result()])
        assert "12.50" in text  # (8-7)/8 = 12.5 %

    def test_empty_results(self):
        text = format_comparison_table([])
        assert "Example" in text

    def test_one_sided_row_is_na_and_left_out_of_the_average(self):
        # A campaign between a pair's two jobs: only the Ψ-neglecting
        # run of mul2 has finished.
        one_sided = fake_result("mul2", 4, 4e-3)
        one_sided.with_probabilities = PolicyOutcome()
        text = format_comparison_table([fake_result(), one_sided])
        row = next(line for line in text.splitlines() if "mul2" in line)
        assert "4.000" in row
        assert row.split()[-3:] == ["n/a", "n/a", "n/a"]
        average = next(
            line for line in text.splitlines() if "average" in line
        )
        assert average.split()[-1] == "12.50"  # mul1's alone


class TestPaperComparison:
    def test_side_by_side(self):
        rows = {row.example: row for row in TABLE1}
        text = format_paper_comparison([fake_result()], rows)
        assert "mul1" in text
        assert "7.29" in text  # paper's mul1 reduction
        assert "12.50" in text  # ours

    def test_unknown_example_skipped(self):
        rows = {row.example: row for row in TABLE1}
        text = format_paper_comparison(
            [fake_result(example="ghost")], rows
        )
        assert "ghost" not in text


class TestSmartphoneTable:
    def test_rows_and_overall(self):
        results = {
            "w/o DVS": fake_result("smartphone", 8, 2.6e-3, 1.8e-3),
            "with DVS": fake_result("smartphone", 8, 1.2e-3, 0.86e-3),
        }
        text = format_smartphone_table(results)
        assert "w/o DVS" in text
        assert "with DVS" in text
        assert "overall reduction" in text
        # 1 - 0.86/2.6 = 66.9 %
        assert "66.9" in text

    def test_partial_results(self):
        results = {"w/o DVS": fake_result("smartphone", 8)}
        text = format_smartphone_table(results)
        assert "with DVS" not in text.split("\n", 3)[-1] or True
        assert "overall" not in text


class TestResultsFromInProgressEvents:
    """Rebuilding aggregates from a campaign that is still running.

    The events.jsonl of a live (or crashed) campaign ends with jobs
    that started but never finished — and possibly a torn final line
    from a writer that died mid-record.  ``results_from_events`` must
    aggregate exactly the finished jobs and tolerate the tail.
    """

    def finished(self, seed, use_probabilities, power):
        return {
            "event": "job_finished",
            "instance": "mul1",
            "dvs": "gradient",
            "seed": seed,
            "use_probabilities": use_probabilities,
            "power": power,
            "cpu_time": 1.0,
            "feasible": True,
            "modes": 4,
        }

    def events(self):
        return [
            {"event": "campaign_started", "campaign": "demo"},
            {"event": "job_started", "job_id": "a"},
            self.finished(0, False, 8e-3),
            {"event": "job_started", "job_id": "b"},
            self.finished(0, True, 6e-3),
            {"event": "job_started", "job_id": "c"},
            self.finished(1, False, 9e-3),
            # Job "d" started but has not finished yet.
            {"event": "job_started", "job_id": "d"},
        ]

    def test_counts_only_finished_jobs(self):
        from repro.analysis.reporting import results_from_events

        (result,) = results_from_events(self.events())
        assert result.example == "mul1"
        assert result.without.powers == [8e-3, 9e-3]
        assert result.with_probabilities.powers == [6e-3]
        assert result.runs == 2

    def test_tolerates_torn_tail_on_disk(self, tmp_path):
        import json

        from repro.analysis.reporting import results_from_events

        path = tmp_path / "events.jsonl"
        payload = "".join(
            json.dumps(event) + "\n" for event in self.events()
        )
        # A writer died mid-record: the last line has no newline and
        # is not valid JSON.
        payload += '{"event": "job_finis'
        path.write_text(payload)
        (result,) = results_from_events(path)
        assert result.without.powers == [8e-3, 9e-3]
        assert result.with_probabilities.powers == [6e-3]

    def test_empty_stream_yields_no_rows(self, tmp_path):
        from repro.analysis.reporting import results_from_events

        path = tmp_path / "events.jsonl"
        path.write_text("")
        assert results_from_events(path) == []


class TestRowOrder:
    """Campaign workers finish jobs out of queue order."""

    def finished(self, instance, dvs):
        return {
            "event": "job_finished",
            "instance": instance,
            "dvs": dvs,
            "seed": 0,
            "use_probabilities": False,
            "power": 1e-3,
            "cpu_time": 1.0,
            "feasible": True,
            "modes": 4,
        }

    def events(self):
        return [
            self.finished("mul6", "gradient"),
            self.finished("mul6", "none"),
            self.finished("smartphone", "none"),
        ]

    def test_a_bare_event_list_keeps_first_appearance_order(self):
        from repro.analysis.reporting import results_from_events

        assert [r.example for r in results_from_events(self.events())] == [
            "mul6 [gradient]",
            "mul6 [none]",
            "smartphone [none]",
        ]

    def test_with_the_spec_rows_follow_its_instances_and_methods(self):
        from repro.analysis.reporting import results_from_events
        from repro.runtime.spec import CampaignSpec

        spec = CampaignSpec(
            name="order",
            instances=["smartphone", "mul9", "mul6"],
            dvs_methods=["none", "gradient"],
        )
        rows = results_from_events(self.events(), spec=spec)
        assert [r.example for r in rows] == [
            "smartphone [none]",
            "mul6 [none]",
            "mul6 [gradient]",
        ]
