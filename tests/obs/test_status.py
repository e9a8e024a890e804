"""Status aggregation and live tailing over synthetic event streams."""

import json
import pathlib

import pytest

from repro.errors import CampaignError
from repro.obs.status import (
    campaign_status,
    format_event,
    format_pool_stats,
    format_status,
    tail_events,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def write_events(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


def event(kind, seq, ts, **fields):
    record = {"seq": seq, "ts": ts, "event": kind}
    record.update(fields)
    return record


def mid_campaign_events():
    """Job a finished (10 s), job b mid-flight, job c failed."""
    return [
        event(
            "campaign_started", 0, 100.0, campaign="t1",
            total_jobs=4, pending_jobs=4,
        ),
        event("job_started", 1, 100.0, job_id="a", attempt=1),
        event("generation", 2, 105.0, job_id="a", generation=5,
              best_fitness=1.5, evaluations=50),
        event("job_finished", 3, 110.0, job_id="a", power=0.5,
              cpu_time=9.9, generations=10, evaluations=100),
        event("job_started", 4, 110.0, job_id="c", attempt=1),
        event("job_failed", 5, 111.0, job_id="c", error="no mapping"),
        event("job_started", 6, 111.0, job_id="b", attempt=1),
        event("generation", 7, 115.0, job_id="b", generation=3,
              best_fitness=2.0, evaluations=30),
    ]


class TestTail:
    def test_missing_stream_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="no event stream"):
            list(tail_events(tmp_path / "events.jsonl"))

    def test_reads_all_complete_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path, mid_campaign_events())
        events = list(tail_events(path))
        assert len(events) == 8
        assert events[0]["event"] == "campaign_started"

    def test_torn_tail_dropped_when_not_following(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path, mid_campaign_events()[:2])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "event": "gen')
        assert len(list(tail_events(path, follow=False))) == 2

    def test_follow_buffers_torn_line_until_completed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        first = event("campaign_started", 0, 1.0, campaign="t",
                      total_jobs=1, pending_jobs=1)
        done = event("campaign_finished", 1, 2.0, campaign="t",
                     completed_jobs=1, failed_jobs=0)
        line = json.dumps(done) + "\n"
        write_events(path, [first])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[:10])  # torn write in progress
            handle.flush()

            def complete_the_line(_interval):
                handle.write(line[10:])
                handle.flush()

            events = list(
                tail_events(path, follow=True, sleep=complete_the_line)
            )
        assert [e["event"] for e in events] == [
            "campaign_started",
            "campaign_finished",
        ]

    def test_follow_stops_after_terminal_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(
            path,
            [
                event("campaign_started", 0, 1.0, campaign="t",
                      total_jobs=0, pending_jobs=0),
                event("campaign_interrupted", 1, 2.0, campaign="t",
                      completed_jobs=0),
            ],
        )
        # sleep() raising proves the iterator never reached polling.
        events = list(
            tail_events(path, follow=True, sleep=pytest.fail)
        )
        assert events[-1]["event"] == "campaign_interrupted"

    def test_corrupt_complete_line_is_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(json.dumps(event("job_started", 1, 1.0)) + "\n")
        assert len(list(tail_events(path))) == 1


class TestCampaignStatus:
    def test_mid_campaign(self, tmp_path):
        write_events(tmp_path / "events.jsonl", mid_campaign_events())
        status = campaign_status(tmp_path)
        assert status.campaign == "t1"
        assert status.total_jobs == 4
        assert status.completed == 1
        assert status.failed == 1
        assert status.done == 2 and status.remaining == 2
        assert status.progress == pytest.approx(0.5)
        assert not status.finished and not status.interrupted
        assert status.running == ["b"]
        assert status.last_generation == {"b": 3}
        assert status.failures == {"c": "no mapping"}
        assert status.job_wall_seconds == {"a": pytest.approx(10.0)}
        assert status.elapsed_seconds == pytest.approx(15.0)

    def test_eta_extrapolates_from_finished_jobs(self, tmp_path):
        write_events(tmp_path / "events.jsonl", mid_campaign_events())
        status = campaign_status(tmp_path)
        # Job a took 10 s.  Job b has been running 4 s (111 -> 115), so
        # 6 s remain for it, plus 10 s for the one not-started job.
        assert status.mean_job_seconds == pytest.approx(10.0)
        assert status.eta_seconds == pytest.approx(16.0)

    def test_eta_shares_the_jobs_not_started_among_the_workers(
        self, tmp_path
    ):
        # A parallel campaign logs each job as one block when it ends:
        # job a ran 10 s (its own timestamps), three jobs remain.
        stream = [
            event("campaign_started", 0, 100.0, campaign="t", version=1,
                  workers=2, total_jobs=4, pending_jobs=4),
            event("job_started", 1, 100.0, job_id="a"),
            event("generation", 2, 105.0, job_id="a", generation=1,
                  best_fitness=1.0, evaluations=10),
            event("job_finished", 3, 110.0, job_id="a", power=0.5,
                  cpu_time=9.9, generations=1, evaluations=10),
        ]
        write_events(tmp_path / "events.jsonl", stream)
        status = campaign_status(tmp_path)
        assert status.workers == 2
        assert status.running == []
        assert status.job_wall_seconds == {"a": pytest.approx(10.0)}
        assert status.eta_seconds == pytest.approx(15.0)
        assert "workers: 2" in format_status(status)

    def test_eta_unknown_without_timing_sample(self, tmp_path):
        write_events(
            tmp_path / "events.jsonl",
            [
                event("campaign_started", 0, 1.0, campaign="t",
                      total_jobs=2, pending_jobs=2),
                event("job_started", 1, 1.0, job_id="a", attempt=1),
            ],
        )
        status = campaign_status(tmp_path)
        assert status.eta_seconds is None
        assert status.mean_job_seconds is None

    def test_finished_campaign(self, tmp_path):
        events = mid_campaign_events() + [
            event("job_finished", 8, 120.0, job_id="b", power=0.4,
                  cpu_time=8.0, generations=9, evaluations=90),
            event("job_finished", 9, 130.0, job_id="d", power=0.3,
                  cpu_time=9.0, generations=9, evaluations=90),
            event("campaign_finished", 10, 130.0, campaign="t1",
                  completed_jobs=3, failed_jobs=1),
        ]
        write_events(tmp_path / "events.jsonl", events)
        status = campaign_status(tmp_path)
        assert status.finished
        assert status.completed == 3
        assert status.running == []
        assert status.eta_seconds is None

    def test_old_job_retried_lines_are_skipped(self, tmp_path):
        # Streams of earlier versions log a job_retried line before a
        # job's second start; the status reads as if it were absent.
        retried = event("job_retried", 2, 2.0, job_id="a", attempt=1,
                        backoff_seconds=0.5, error="pool died")
        stream = [
            event("campaign_started", 0, 1.0, campaign="t",
                  total_jobs=1, pending_jobs=1),
            event("job_started", 1, 1.0, job_id="a", attempt=1),
            event("job_started", 3, 3.0, job_id="a", attempt=2),
        ]
        write_events(tmp_path / "events.jsonl", stream)
        expected = campaign_status(tmp_path)
        write_events(
            tmp_path / "events.jsonl", stream[:2] + [retried] + stream[2:]
        )
        status = campaign_status(tmp_path)
        assert status == expected
        assert status.running == ["a"]  # not double-listed

    def test_resume_segment_resets_progress_counters(self, tmp_path):
        # Segment 1: job a finishes, then the process is interrupted.
        # Segment 2 re-reports a as skipped; without the segment reset
        # a would count twice (done > total).
        events = [
            event("campaign_started", 0, 1.0, campaign="t",
                  total_jobs=2, pending_jobs=2),
            event("job_started", 1, 1.0, job_id="a", attempt=1),
            event("job_finished", 2, 11.0, job_id="a", power=0.5,
                  cpu_time=10.0, generations=5, evaluations=50),
            event("campaign_interrupted", 3, 11.0, campaign="t",
                  completed_jobs=1),
            event("campaign_started", 4, 20.0, campaign="t",
                  total_jobs=2, pending_jobs=1),
            event("job_skipped", 5, 20.0, job_id="a",
                  reason="already complete"),
            event("job_started", 6, 20.0, job_id="b", attempt=1),
        ]
        write_events(tmp_path / "events.jsonl", events)
        status = campaign_status(tmp_path)
        assert not status.interrupted
        assert status.completed == 0 and status.skipped == 1
        assert status.done == 1 and status.remaining == 1
        # The wall-time sample from segment 1 still feeds the ETA.
        assert status.mean_job_seconds == pytest.approx(10.0)
        assert status.eta_seconds is not None


class TestRendering:
    def test_format_event_covers_every_kind(self):
        for raw in mid_campaign_events():
            line = format_event(raw)
            assert isinstance(line, str) and line

    def test_format_event_unknown_kind_falls_back_to_json(self):
        line = format_event({"seq": 0, "ts": 1.0, "event": "mystery",
                             "detail": 7})
        assert "mystery" in line and "7" in line

    def test_old_job_retried_line_renders_as_json(self):
        line = format_event(
            event("job_retried", 2, 2.0, job_id="a", attempt=1,
                  backoff_seconds=0.5, error="pool died")
        )
        payload = json.loads(line.split(" ", 1)[1])
        assert payload == {
            "event": "job_retried",
            "job_id": "a",
            "attempt": 1,
            "backoff_seconds": 0.5,
            "error": "pool died",
        }

    def test_format_status_mid_campaign(self, tmp_path):
        write_events(tmp_path / "events.jsonl", mid_campaign_events())
        text = format_status(campaign_status(tmp_path))
        assert "campaign 't1': running" in text
        assert "2/4 jobs (50%)" in text
        assert "1 completed" in text and "1 failed" in text
        assert "eta:" in text
        assert "running: b (generation 3)" in text
        assert "failed: c: no mapping" in text

    def test_format_status_fresh_campaign_reports_eta_na(self, tmp_path):
        # A campaign with zero completed jobs has no timing sample:
        # the ETA line must say "n/a" explicitly, not a guess.
        write_events(
            tmp_path / "events.jsonl",
            [
                event("campaign_started", 0, 1.0, campaign="t",
                      total_jobs=2, pending_jobs=2),
                event("job_started", 1, 1.0, job_id="a", attempt=1),
            ],
        )
        text = format_status(campaign_status(tmp_path))
        assert "eta: n/a (no completed jobs yet)" in text
        assert "unknown" not in text

    def test_format_status_finished_has_no_eta(self, tmp_path):
        write_events(
            tmp_path / "events.jsonl",
            [
                event("campaign_started", 0, 1.0, campaign="t",
                      total_jobs=0, pending_jobs=0),
                event("campaign_finished", 1, 2.0, campaign="t",
                      completed_jobs=0, failed_jobs=0),
            ],
        )
        text = format_status(campaign_status(tmp_path))
        assert "finished" in text
        assert "eta" not in text


class TestPoolStats:
    def test_modern_summary_renders_figures(self):
        summary = {
            "perf": {
                "pool_workers": 4,
                "pool_utilisation": 0.91,
                "pool_busy_seconds": 36.4,
                "parallel_evaluations": 4000,
                "batches": 58,
                "pool_steals": 120,
                "pool_fallbacks": 0,
                "speculation_issued": 900,
                "speculation_hits": 840,
                "speculation_discards": 60,
                "inprocess_evaluations": 12,
                "inprocess_eval_seconds": 0.4,
            }
        }
        text = format_pool_stats(summary)
        assert "workers 4" in text
        assert "utilisation 91%" in text
        assert "120 steals" in text
        assert "900 issued, 840 hits, 60 discarded" in text
        assert "12 evaluations" in text
        assert "n/a" not in text

    def test_pr3_era_summary_renders_na_not_crash(self):
        # Regression: formatting pool_utilisation used to assume the
        # field exists; a summary written before dispatch windows (or
        # by a run that fell back to serial) must render n/a.
        summary = json.loads(
            (FIXTURES / "run_summary_pr3.json").read_text()
        )
        text = format_pool_stats(summary)
        assert "utilisation n/a" in text
        assert "workers n/a" in text
        # Fields the old schema *did* carry still render.
        assert "busy 0.0s" in text
        assert "0 parallel evaluations in 0 batches" in text

    def test_empty_summary_is_all_na(self):
        text = format_pool_stats({})
        assert "utilisation n/a" in text
        assert "workers n/a" in text
        assert "steals" in text

    def test_poolless_summary_renders_na_workers(self):
        # A serial campaign's summary carries every PerfStats field,
        # pool_workers 0 and pool_utilisation 0.0 included; there was
        # no pool, so both render n/a as they always have.
        summary = {
            "perf": {
                "pool_workers": 0,
                "pool_utilisation": 0.0,
                "pool_busy_seconds": 0.0,
                "parallel_evaluations": 0,
                "batches": 0,
                "pool_steals": 0,
                "pool_fallbacks": 0,
                "inprocess_evaluations": 250,
                "inprocess_eval_seconds": 1.25,
            }
        }
        text = format_pool_stats(summary)
        assert "workers n/a, utilisation n/a, busy 0.0s" in text
        assert "0 parallel evaluations in 0 batches" in text
        assert "250 evaluations, 1.2s" in text
