"""run_summary.json: building, atomic writing, loading."""

import json

import pytest

from repro.engine.profile import PerfStats
from repro.errors import CampaignError
from repro.obs.summary import (
    build_run_summary,
    load_run_summary,
    run_summary_path,
    write_run_summary,
)
from repro.runtime.checkpoint import load_result
from repro.runtime.runner import run_campaign
from repro.runtime.spec import CampaignSpec
from repro.synthesis.config import DvsMethod, SynthesisConfig


def job_record(power=0.5, attempts=1, perf=None):
    return {
        "power": power,
        "cpu_time": 2.0,
        "feasible": True,
        "generations": 10,
        "evaluations": 100,
        "attempts": attempts,
        "history": [1.0, 0.5],  # not copied into summary rows
        "perf": perf or {},
    }


def make_perf(mobility=1.0, o1=0.25, o2=0.75):
    return {
        "evaluations": 50,
        "cache_hits": 10,
        "wall_time": 2.0,
        "pool_busy_seconds": 1.0,
        "phase_seconds": {"mobility": mobility},
        "phase_calls": {"mobility": 50},
        "mode_phase_seconds": {"mobility": {"O1": o1, "O2": o2}},
    }


class TestBuild:
    def test_totals_and_rows(self):
        summary = build_run_summary(
            campaign="t1",
            total_jobs=4,
            job_results={"a": job_record(), "b": job_record(power=0.4)},
            failures={"c": "no mapping"},
            events=[
                {"ts": 100.0, "event": "campaign_started"},
                {"ts": 130.0, "event": "campaign_finished"},
                {"event": "no-ts"},
            ],
            clock=lambda: 1000.0,
        )
        assert summary["version"] == 1
        assert summary["campaign"] == "t1"
        assert summary["generated_at"] == 1000.0
        assert summary["interrupted"] is False
        assert summary["jobs"] == {
            "total": 4,
            "completed": 2,
            "failed": 1,
            "pending": 1,
        }
        assert summary["wall_seconds"] == pytest.approx(30.0)
        assert summary["failures"] == {"c": "no mapping"}
        assert summary["job_results"]["b"]["power"] == 0.4
        # Rows carry the scalar outcome, not the bulky payloads.
        assert "history" not in summary["job_results"]["a"]

    def test_retries_counted_from_events(self):
        summary = build_run_summary(
            campaign="t",
            total_jobs=1,
            job_results={},
            failures={},
            events=[
                {"ts": 1.0, "event": "job_retried"},
                {"ts": 2.0, "event": "job_retried"},
            ],
        )
        assert summary["retries"] == 2
        assert summary["wall_seconds"] == pytest.approx(1.0)

    def test_perf_aggregates_across_jobs(self):
        summary = build_run_summary(
            campaign="t",
            total_jobs=2,
            job_results={
                "a": job_record(perf=make_perf(mobility=1.0)),
                "b": job_record(perf=make_perf(mobility=0.5,
                                               o1=0.1, o2=0.4)),
            },
            failures={},
            events=[],
        )
        perf = summary["perf"]
        assert perf["evaluations"] == 100
        assert perf["cache_hits"] == 20
        assert perf["phase_seconds"]["mobility"] == pytest.approx(1.5)
        assert perf["phase_calls"]["mobility"] == 100
        assert perf["mode_phase_seconds"]["mobility"] == {
            "O1": pytest.approx(0.35),
            "O2": pytest.approx(1.15),
        }
        # Per-mode buckets still sum to the aggregate after folding.
        assert sum(
            perf["mode_phase_seconds"]["mobility"].values()
        ) == pytest.approx(perf["phase_seconds"]["mobility"])

    def test_wall_seconds_none_without_two_timestamps(self):
        summary = build_run_summary(
            campaign="t", total_jobs=0, job_results={}, failures={},
            events=[{"ts": 5.0, "event": "campaign_started"}],
        )
        assert summary["wall_seconds"] is None


class TestWriteLoad:
    def test_roundtrip_through_json_load(self, tmp_path):
        summary = build_run_summary(
            campaign="t", total_jobs=1,
            job_results={"a": job_record(perf=make_perf())},
            failures={}, events=[], metrics={"counters": {"x": 1.0}},
        )
        path = write_run_summary(tmp_path, summary)
        assert path == run_summary_path(tmp_path)
        with open(path) as handle:
            raw = json.load(handle)
        assert raw == json.loads(json.dumps(summary))
        assert load_run_summary(tmp_path) == raw
        assert raw["metrics"] == {"counters": {"x": 1.0}}

    def test_write_replaces_atomically(self, tmp_path):
        write_run_summary(tmp_path, {"version": 1, "campaign": "old"})
        write_run_summary(tmp_path, {"version": 1, "campaign": "new"})
        assert load_run_summary(tmp_path)["campaign"] == "new"
        assert not run_summary_path(tmp_path).with_suffix(
            ".json.tmp"
        ).exists()

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="no run summary"):
            load_run_summary(tmp_path)

    def test_load_corrupt_raises(self, tmp_path):
        run_summary_path(tmp_path).write_text("{not json")
        with pytest.raises(CampaignError, match="corrupt run summary"):
            load_run_summary(tmp_path)


class TestCampaignPerf:
    """A real campaign's summary perf is the merge of its job records."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        spec = CampaignSpec(
            name="pooled",
            instances=["mul1"],
            dvs_methods=[DvsMethod.GRADIENT],
            runs=1,
            base_seed=4,
            config=SynthesisConfig(
                population_size=10,
                max_generations=4,
                convergence_generations=4,
                jobs=2,
            ),
            retry_backoff=0.0,
        )
        run_dir = tmp_path_factory.mktemp("pooled")
        outcome = run_campaign(spec, run_dir)
        assert outcome.completed == 2
        return run_dir

    def test_summary_perf_is_the_merge_of_job_records(self, run_dir):
        records = [
            load_result(run_dir, job_id)["perf"]
            for job_id in load_run_summary(run_dir)["job_results"]
        ]
        assert len(records) == 2
        perf = load_run_summary(run_dir)["perf"]
        # Nothing a job record carries is dropped from the summary.
        for record in records:
            assert set(record) == set(perf)
        for name in (
            "evaluations",
            "cache_hits",
            "dedup_hits",
            "inprocess_evaluations",
            "parallel_evaluations",
            "batches",
            "mode_cache_hits",
            "mode_cache_misses",
            "mode_cache_evictions",
        ):
            assert perf[name] == sum(record[name] for record in records)
        assert perf["wall_time"] == pytest.approx(
            sum(record["wall_time"] for record in records)
        )
        assert perf["jobs"] == 2
        assert perf["pool_workers"] == 2
        assert perf["parallel_evaluations"] > 0
        for phase, modes in perf["mode_phase_calls"].items():
            for mode, calls in modes.items():
                assert calls == sum(
                    record["mode_phase_calls"].get(phase, {}).get(mode, 0)
                    for record in records
                )
        # The derived rates describe the merged totals.
        assert perf["pool_utilisation"] == pytest.approx(
            perf["pool_busy_seconds"]
            / (perf["pool_dispatch_seconds"] * perf["pool_workers"])
        )
        assert perf["mode_cache_hit_rate"] == pytest.approx(
            perf["mode_cache_hits"]
            / (perf["mode_cache_hits"] + perf["mode_cache_misses"])
        )
        merged = PerfStats()
        for record in records:
            merged.merge(PerfStats.from_dict(record))
        assert perf == json.loads(json.dumps(merged.to_dict()))
