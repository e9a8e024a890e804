"""The event stream's format version, and streams older than it.

``tests/fixtures/unversioned_events/`` is the run directory of a
two-job ``mul1`` campaign written before ``campaign_started`` carried a
``version``: the first job finished, the second was interrupted after
its generation-2 checkpoint.  Such a segment reads as version 1.
"""

import json
import pathlib
import shutil

import pytest

from repro.analysis.reporting import results_from_events
from repro.cli import main
from repro.errors import CampaignError
from repro.obs.status import campaign_status
from repro.runtime.events import EVENTS_VERSION, events_path, read_events
from repro.runtime.runner import resume_campaign

FIXTURE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "fixtures"
    / "unversioned_events"
)
FIRST, SECOND = "mul1-none-noprob-s11", "mul1-none-prob-s11"


@pytest.fixture
def run_dir(tmp_path):
    target = tmp_path / "run"
    shutil.copytree(FIXTURE, target)
    return target


def report_row(capsys, run_dir):
    assert main(["campaign", "--report", str(run_dir)]) == 0
    return next(
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("mul1 (")
    )


def test_the_fixture_predates_versioned_events():
    events = read_events(events_path(FIXTURE))
    assert events[0]["event"] == "campaign_started"
    assert "version" not in events[0] and "workers" not in events[0]


def test_status_report_and_resume_read_an_unversioned_stream(
    run_dir, capsys
):
    assert main(["campaign", "--status", str(run_dir)]) == 0
    status = capsys.readouterr().out
    assert "'unversioned': interrupted" in status
    assert "1/2 jobs" in status
    assert "n/a" in report_row(capsys, run_dir)  # one policy finished

    assert main(["campaign", "--resume", str(run_dir), "--quiet"]) == 0
    capsys.readouterr()
    events = read_events(events_path(run_dir))
    segments = [e for e in events if e["event"] == "campaign_started"]
    assert len(segments) == 2
    assert "version" not in segments[0]
    assert segments[1]["version"] == EVENTS_VERSION
    resumed = [
        e for e in events if e["event"] == "job_started" and e["job_id"] == SECOND
    ]
    assert resumed[-1]["resumed_from"] == 2
    finished = [e["job_id"] for e in events if e["event"] == "job_finished"]
    assert sorted(finished) == [FIRST, SECOND]

    # Both segments read, the old one as version 1.
    assert main(["campaign", "--status", str(run_dir)]) == 0
    status = capsys.readouterr().out
    assert "'unversioned': finished" in status
    assert "2/2 jobs" in status
    row = report_row(capsys, run_dir)
    assert "n/a" not in row
    for job_id in (FIRST, SECOND):
        result = json.loads((run_dir / "results" / f"{job_id}.json").read_text())
        assert f"{result['power'] * 1e3:.3f}" in row


def test_job_finished_keeps_the_keys_of_version_1(run_dir):
    # job_finished is built from the result record; a key added to or
    # dropped from that record must not slip into version 1's events.
    def finished_keys(path):
        return [
            sorted(event)
            for event in read_events(path)
            if event["event"] == "job_finished"
        ]

    (fixture,) = finished_keys(events_path(FIXTURE))
    resume_campaign(run_dir)
    assert finished_keys(events_path(run_dir)) == [fixture, fixture]


@pytest.mark.parametrize(
    "version", [2, 0, True, 1.0, "1"], ids=["2", "0", "true", "1.0", "str"]
)
def test_a_segment_of_another_version_is_refused(run_dir, version, capsys):
    started = {
        "seq": 99,
        "ts": 2.0,
        "event": "campaign_started",
        "campaign": "unversioned",
        "version": version,
        "workers": 1,
        "total_jobs": 2,
        "pending_jobs": 1,
    }
    with open(events_path(run_dir), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(started) + "\n")
    match = "unsupported event stream version"
    with pytest.raises(CampaignError, match=match):
        campaign_status(run_dir)
    with pytest.raises(CampaignError, match=match):
        results_from_events(events_path(run_dir))
    with pytest.raises(CampaignError, match=match):
        resume_campaign(run_dir)
    for flag in ("--status", "--report"):
        with pytest.raises(SystemExit, match=f"repro-mm: error: {match}"):
            main(["campaign", flag, str(run_dir)])
