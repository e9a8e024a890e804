"""SIGKILL ``repro-mm adapt`` just before it publishes its design library.

``DesignLibrary.save`` writes through
:func:`repro.durable.atomic_write_json`: temp file, ``fsync``, then
``os.replace``.  A process killed between the last two steps leaves the
previous ``library.json`` in place and a stray temp file next to it.
The previous library must still load unchanged, the event stream must
still read, and the same command must then finish and keep every
record the library held before the kill.

The kill is real: a child runs the CLI and sends ``SIGKILL`` to itself
at the ``os.replace`` of ``library.json``.
"""

import signal
import subprocess
import sys
import textwrap

import pytest

from repro.adaptive.library import DesignLibrary
from repro.runtime.events import iter_events

from tests.runtime.test_campaign_signals import repro_env

#: Runs the CLI with ``argv[1:]`` and dies just before ``library.json``
#: is swapped in.
LIBRARY_KILLER = textwrap.dedent(
    """
    import os, pathlib, signal, sys

    from repro.cli import main

    real_replace = os.replace

    def replace(src, dst):
        if pathlib.Path(dst).name == "library.json":
            os.kill(os.getpid(), signal.SIGKILL)
        real_replace(src, dst)

    os.replace = replace
    main(sys.argv[1:])
    """
)

SIZING = ["--steps", "30", "--population", "8", "--generations", "6"]


def run(*argv):
    return subprocess.run(
        [sys.executable, *argv],
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.slow
def test_kill_before_library_replace_keeps_previous_library(tmp_path):
    run_dir = tmp_path / "run"
    library_path = run_dir / "library.json"
    first = run(
        "-m", "repro.cli", "adapt", "mul1", *SIZING, "--out", str(run_dir)
    )
    assert first.returncode == 0, first.stderr
    before = DesignLibrary.load(library_path).to_dict()

    script = tmp_path / "library_killer.py"
    script.write_text(LIBRARY_KILLER)
    command = [
        "adapt",
        "mul1",
        "--library",
        str(library_path),
        *SIZING,
        "--out",
        str(run_dir),
    ]
    killed = run(str(script), *command)
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    # The kill came after the new library was written and synced.
    assert (run_dir / "library.json.tmp").exists()

    assert DesignLibrary.load(library_path).to_dict() == before
    assert list(iter_events(run_dir / "events.jsonl"))

    again = run("-m", "repro.cli", *command)
    assert again.returncode == 0, again.stderr
    after = DesignLibrary.load(library_path).to_dict()
    for record in before["records"]:
        assert record in after["records"], record["name"]
