"""SIGKILL a campaign at every write site, then ``campaign --resume``.

A campaign process that dies hard — OOM killer, ``kill -9``, power
cut — gets no chance to clean up.  What it leaves on disk is whatever
the last completed write left, plus at most one half-finished write:
an atomic JSON write whose temp file is on disk but not yet swapped in
(spec, checkpoint, result, ``run_summary.json``), or a torn line at
the end of ``events.jsonl``.  From every such state the next
``repro-mm campaign --resume`` must either

* finish with results bit-identical to an uninterrupted run of the
  same spec, a ``--report`` that lists both policies and a summary
  that says ``"interrupted": false``; or
* stop with one typed ``repro-mm: error:`` line and no traceback —
  allowed only when the kill came before the spec was on disk, and
  then a fresh ``campaign SPEC --out DIR`` over the same directory
  must finish like a resume.

The kills are real: an external ``SIGKILL`` of a running
``repro-mm campaign`` process, and a child that sends ``SIGKILL`` to
itself at one chosen write.
"""

import json
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.cli import main
from repro.runtime.runner import run_campaign
from repro.runtime.spec import CampaignSpec
from repro.synthesis.config import SynthesisConfig

from tests.runtime.test_campaign_signals import repro_env


def make_spec(generations):
    """mul1, one seed, both policies, a checkpoint every generation."""
    return CampaignSpec(
        name="killed",
        instances=["mul1"],
        runs=1,
        base_seed=11,
        config=SynthesisConfig(
            population_size=10,
            max_generations=generations,
            convergence_generations=generations,
        ),
        checkpoint_every=1,
    )


#: Runs the campaign CLI and sends itself SIGKILL at one write:
#: ``argv[1]`` names the site, ``argv[2]`` which occurrence of it.
#: File sites die just before the ``os.replace`` that would publish a
#: written and fsynced temp file; event sites die after writing half
#: of the event's line.
SELF_KILLER = textwrap.dedent(
    """
    import os, pathlib, signal, sys

    from repro.cli import main
    from repro.runtime.events import EventLog

    site, occurrence, spec, run_dir = sys.argv[1:]
    seen = 0

    def reached():
        global seen
        seen += 1
        return seen == int(occurrence)

    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    def is_site(target):
        target = pathlib.Path(target)
        return {
            "spec": target.name == "spec.json",
            "checkpoint": target.parent.name == "checkpoints",
            "result": target.parent.name == "results",
            "summary": target.name == "run_summary.json",
        }[site]

    class HalfLine:
        def __init__(self, handle):
            self.handle = handle

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            self.handle.flush()
            die()

    if site.startswith("event:"):
        kind = site.split(":", 1)[1]
        real_emit = EventLog.emit

        def emit(self, event, **fields):
            if event == kind and reached():
                self._handle = HalfLine(self._handle)
            return real_emit(self, event, **fields)

        EventLog.emit = emit
    else:
        real_replace = os.replace

        def replace(src, dst):
            if is_site(dst) and reached():
                die()
            real_replace(src, dst)

        os.replace = replace

    main(["campaign", spec, "--out", run_dir, "--quiet"])
    """
)

#: ``(site, occurrence)``.  With 25 generations per job, occurrence 10
#: of a per-generation site lands in the first job and 30 in the
#: second; ``result`` and ``job_finished`` cover both jobs.
WRITE_SITES = [
    ("spec", 1),
    ("checkpoint", 10),
    ("checkpoint", 30),
    ("result", 1),
    ("result", 2),
    ("summary", 1),
    ("event:generation", 30),
    ("event:checkpointed", 10),
    ("event:job_finished", 1),
    ("event:job_finished", 2),
]


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


def read_events(run_dir):
    events = []
    path = run_dir / "events.jsonl"
    if path.exists():
        for line in path.read_text().splitlines():
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # the torn tail of the killed writer
    return events


def assert_resumed_bit_identically(run_dir, spec, reference, capsys):
    resumed = cli("campaign", "--resume", str(run_dir), "--quiet")
    assert resumed.returncode == 0, resumed.stderr
    assert "Traceback" not in resumed.stderr

    for job in spec.jobs():
        stored = json.loads(
            (run_dir / "results" / f"{job.job_id}.json").read_text()
        )
        expected = reference.results[job.job_id]
        for field in ("power", "best_genes", "history", "generations"):
            assert stored[field] == getattr(expected, field), field

    # Each job is logged finished exactly once, whatever was torn.
    finished = [
        event["job_id"]
        for event in read_events(run_dir)
        if event.get("event") == "job_finished"
    ]
    assert sorted(finished) == sorted(job.job_id for job in spec.jobs())

    assert main(["campaign", "--report", str(run_dir)]) == 0
    report = capsys.readouterr().out
    row = next(line for line in report.splitlines() if "mul1" in line)
    assert "n/a" not in row
    for job in spec.jobs():
        power_mw = reference.results[job.job_id].power * 1e3
        assert f"{power_mw:.3f}" in row

    summary = json.loads((run_dir / "run_summary.json").read_text())
    assert summary["interrupted"] is False


def assert_typed_error(completed, message):
    assert completed.returncode != 0
    assert "Traceback" not in completed.stderr
    lines = completed.stderr.strip().splitlines()
    assert len(lines) == 1, completed.stderr
    assert lines[0].startswith(f"repro-mm: error: {message}")


@pytest.fixture(scope="module")
def short_spec():
    return make_spec(25)


@pytest.fixture(scope="module")
def short_reference(short_spec, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("short-reference")
    return run_campaign(short_spec, run_dir)


@pytest.mark.slow
@pytest.mark.parametrize(
    "site,occurrence", WRITE_SITES, ids=[f"{s}-{n}" for s, n in WRITE_SITES]
)
def test_kill_at_write_site_then_resume(
    site, occurrence, short_spec, short_reference, tmp_path, capsys
):
    spec_file = tmp_path / "campaign.json"
    short_spec.save(spec_file)
    script = tmp_path / "self_killer.py"
    script.write_text(SELF_KILLER)
    run_dir = tmp_path / "run"

    child = subprocess.run(
        [
            sys.executable,
            str(script),
            site,
            str(occurrence),
            str(spec_file),
            str(run_dir),
        ],
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr

    if site == "spec":
        # Nothing to resume: the spec never reached its file name.  The
        # campaign starts afresh over the same directory instead.
        assert not (run_dir / "spec.json").exists()
        assert_typed_error(
            cli("campaign", "--resume", str(run_dir)),
            "no campaign spec at",
        )
        restarted = cli(
            "campaign", str(spec_file), "--out", str(run_dir), "--quiet"
        )
        assert restarted.returncode == 0, restarted.stderr
    assert_resumed_bit_identically(
        run_dir, short_spec, short_reference, capsys
    )


@pytest.mark.slow
def test_external_sigkill_mid_campaign_then_resume(tmp_path, capsys):
    spec = make_spec(60)
    reference = run_campaign(spec, tmp_path / "reference")
    first, second = (job.job_id for job in spec.jobs())
    spec_file = tmp_path / "campaign.json"
    spec.save(spec_file)
    run_dir = tmp_path / "run"

    child = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "campaign",
            str(spec_file),
            "--out",
            str(run_dir),
            "--quiet",
        ],
        env=repro_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # Kill once the first job is finished and the second has a
        # checkpoint on disk, i.e. in the middle of the second job.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and child.poll() is None:
            seen = {
                (event.get("event"), event.get("job_id"))
                for event in read_events(run_dir)
            }
            if {("job_finished", first), ("checkpointed", second)} <= seen:
                break
            time.sleep(0.005)
        child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=30) == -signal.SIGKILL
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()

    finished = [
        event["job_id"]
        for event in read_events(run_dir)
        if event.get("event") == "job_finished"
    ]
    assert finished == [first]
    assert_resumed_bit_identically(run_dir, spec, reference, capsys)
