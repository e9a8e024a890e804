"""SIGTERM must take the same graceful path as Ctrl-C.

A supervised campaign (systemd unit, batch scheduler, container
stop) is told to go away with SIGTERM.  The regression pinned here:
the ``run_summary.json`` export and the ``campaign_interrupted`` event
— long wired to ``KeyboardInterrupt`` — must also fire on SIGTERM, and
the interrupted campaign must resume bit-identically afterwards.
SIGKILL, which no handler sees, is ``test_campaign_kill``'s subject.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro


def repro_env():
    env = dict(os.environ)
    package_root = str(pathlib.Path(repro.__file__).parent.parent)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([existing] if existing else [])
    )
    return env


SPEC = {
    "name": "sigterm-victim",
    "instances": ["mul1"],
    "runs": 1,
    "base_seed": 5,
    "checkpoint_every": 1,
    "config": {
        "population_size": 10,
        "max_generations": 500,
        "convergence_generations": 500,
    },
}

CHILD_SCRIPT = textwrap.dedent(
    """
    import json, sys
    from repro.api import run_campaign

    spec = json.loads(sys.argv[1])
    run_campaign(spec, run_dir=sys.argv[2])
    """
)


def wait_for_event(events, kind, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if events.exists():
            for line in events.read_text().splitlines():
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if event.get("event") == kind:
                    return event
        time.sleep(0.05)
    raise AssertionError(f"no {kind!r} event appeared in time")


def read_event_kinds(events):
    kinds = []
    for line in events.read_text().splitlines():
        try:
            kinds.append(json.loads(line).get("event"))
        except json.JSONDecodeError:
            continue
    return kinds


class TestSigtermContextmanager:
    def test_sigterm_becomes_keyboard_interrupt(self):
        from repro.runtime.runner import _sigterm_as_interrupt

        with pytest.raises(KeyboardInterrupt):
            with _sigterm_as_interrupt():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)  # the signal interrupts this

    def test_previous_handler_is_restored(self):
        from repro.runtime.runner import _sigterm_as_interrupt

        before = signal.getsignal(signal.SIGTERM)
        with _sigterm_as_interrupt():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


@pytest.mark.slow
def test_sigterm_exports_summary_like_ctrl_c(tmp_path):
    script = tmp_path / "victim.py"
    script.write_text(CHILD_SCRIPT)
    run_dir = tmp_path / "run"
    child = subprocess.Popen(
        [sys.executable, str(script), json.dumps(SPEC), str(run_dir)],
        env=repro_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        events = run_dir / "events.jsonl"
        # Interrupt only once real work (and a durable snapshot) exists.
        wait_for_event(events, "checkpointed")
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=30) != 0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()

    kinds = read_event_kinds(events)
    assert "campaign_interrupted" in kinds
    assert "campaign_finished" not in kinds

    summary = json.loads((run_dir / "run_summary.json").read_text())
    assert summary["interrupted"] is True
    assert summary["campaign"] == "sigterm-victim"

    # The interrupted campaign is still resumable state, not wreckage:
    # the spec and at least one checkpoint survived.
    assert (run_dir / "spec.json").exists()
    checkpoints = list((run_dir / "checkpoints").glob("*.json"))
    assert checkpoints
