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
itself at one chosen write.  A campaign of two units runs on campaign
workers (the child pins two usable CPUs, so a one-CPU host runs them
too): there a worker dies mid-checkpoint, or the parent dies mid-line,
and no process of the campaign may outlive it.
"""

import json
import pathlib
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


def make_spec(generations, instances=("mul1",)):
    """One seed, both policies, a checkpoint every generation."""
    return CampaignSpec(
        name="killed",
        instances=list(instances),
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
    for job in spec.jobs():
        row = next(
            line
            for line in report.splitlines()
            if line.startswith(f"{job.instance} (")
        )
        assert "n/a" not in row
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


#: Runs the campaign CLI on two campaign workers and sends SIGKILL at
#: one write: ``argv[1]`` names the site, ``argv[2]`` the job whose
#: checkpoint write kills its worker (``-`` for the parent's
#: ``generation`` lines), ``argv[3]`` which occurrence of it.
WORKER_KILLER = textwrap.dedent(
    """
    import os, pathlib, signal, sys

    from repro.cli import main
    from repro.runtime import runner
    from repro.runtime.events import EventLog

    runner.usable_cpus = lambda: 2
    site, job_id, occurrence, spec, run_dir = sys.argv[1:]
    seen = 0

    def reached():
        global seen
        seen += 1
        return seen == int(occurrence)

    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    class HalfLine:
        def __init__(self, handle):
            self.handle = handle

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            self.handle.flush()
            die()

    if site == "worker-checkpoint":
        real_replace = os.replace

        def replace(src, dst):
            target = pathlib.Path(dst)
            if (
                target.parent.name == "checkpoints"
                and target.name == job_id + ".json"
                and reached()
            ):
                die()
            real_replace(src, dst)

        os.replace = replace
    else:
        real_emit = EventLog.emit

        def emit(self, event, **fields):
            if event == "generation" and reached():
                self._handle = HalfLine(self._handle)
            return real_emit(self, event, **fields)

        EventLog.emit = emit

    main(["campaign", spec, "--out", run_dir, "--quiet"])
    """
)


def processes_running(script):
    """Process ids whose command line names ``script``."""
    found = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            command = (entry / "cmdline").read_bytes()
        except OSError:  # it ended while we looked
            continue
        if str(script).encode() in command:
            found.append(int(entry.name))
    return found


def checkpoint_generations(run_dir):
    """``{job checkpoint: generation}``; a write in flight is a ``.tmp``."""
    return {
        path.name: json.loads(path.read_text())["state"]["generation"]
        for path in (run_dir / "checkpoints").glob("*.json")
    }


@pytest.fixture(scope="module")
def two_unit_spec():
    # Jobs of most of a second each, so a worker that ignored its
    # parent's death would go on writing checkpoints for a while.
    return make_spec(25, instances=("mul8", "mul10"))


@pytest.fixture(scope="module")
def two_unit_reference(two_unit_spec, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("two-unit-reference")
    return run_campaign(two_unit_spec, run_dir)


def worker_killer(tmp_path, spec, site, job_id, occurrence):
    spec_file = tmp_path / "campaign.json"
    spec.save(spec_file)
    script = tmp_path / "worker_killer.py"
    script.write_text(WORKER_KILLER)
    command = [
        sys.executable,
        str(script),
        site,
        job_id,
        str(occurrence),
        str(spec_file),
        str(tmp_path / "run"),
    ]
    return script, command


@pytest.mark.slow
def test_worker_killed_mid_checkpoint_then_resume(
    two_unit_spec, two_unit_reference, tmp_path, capsys
):
    victim = two_unit_spec.jobs()[2].job_id  # the second unit's first job
    script, command = worker_killer(
        tmp_path, two_unit_spec, "worker-checkpoint", victim, 5
    )
    child = subprocess.run(
        command, env=repro_env(), capture_output=True, text=True, timeout=300
    )
    assert_typed_error(child, "campaign worker")
    assert f"running job {victim!r}" in child.stderr
    assert "status -9" in child.stderr
    assert "--resume" in child.stderr
    assert processes_running(script) == []
    assert_resumed_bit_identically(
        tmp_path / "run", two_unit_spec, two_unit_reference, capsys
    )


@pytest.mark.slow
def test_parent_killed_mid_line_leaves_no_worker_then_resume(
    two_unit_spec, two_unit_reference, tmp_path, capsys
):
    script, command = worker_killer(
        tmp_path, two_unit_spec, "parent-generation", "-", 10
    )
    child = subprocess.Popen(
        command,
        env=repro_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        assert child.wait(timeout=300) == -signal.SIGKILL
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    died = time.monotonic()
    run_dir = tmp_path / "run"
    at_death = checkpoint_generations(run_dir)
    assert at_death  # the workers were mid-job
    while processes_running(script) and time.monotonic() < died + 10.0:
        time.sleep(0.05)
    assert processes_running(script) == []
    settled = checkpoint_generations(run_dir)
    # A worker that passed its parent check just before the kill may
    # finish that one checkpoint write; one that ignored the death
    # would write a checkpoint every generation to the end of its job.
    for name, generation in settled.items():
        assert generation <= at_death.get(name, 0) + 1, name
    time.sleep(0.5)
    assert checkpoint_generations(run_dir) == settled
    events = read_events(run_dir)
    assert not any(e.get("event") == "job_finished" for e in events)
    assert_resumed_bit_identically(
        run_dir, two_unit_spec, two_unit_reference, capsys
    )
