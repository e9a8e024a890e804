"""How fast the host runs right now, for scaling measured times.

The virtual CPUs this benchmark runs on speed up and slow down by up to
two times, in phases of seconds to hours, and every kind of
pure-Python work follows: the CPU time of a fixed computation changes
as much as its wall time.  A short fixed computation timed right after
a stretch of program work tells how fast the host was during it.  The
benchmark times such a probe between generations and scales each
stretch of the window to the reference host's speed, on which one
probe takes ``REFERENCE_PROBE_S`` of CPU time.

The hypervisor also stops the virtual CPUs now and then.  That time
("steal") passes on the wall clock but in no process's CPU time, so the
probe does not see it; :func:`stolen_seconds` reads it from the kernel.

This module imports nothing of the program, so that the set-up probes
can time the host before importing it.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import List

#: CPU seconds one :func:`probe` takes on the reference host.
REFERENCE_PROBE_S = 1e-3


def _work() -> int:
    table = {}
    total = 0
    for i in range(3500):
        key = i & 511
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total


def probe() -> float:
    """CPU seconds of one fixed piece of pure-Python work, measured now.

    Thread CPU time, so that pool workers sharing the cores do not slow
    it; the collector is paused, so that it does not collect the
    program's garbage inside the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        _work()
        return time.thread_time() - started
    finally:
        if enabled:
            gc.enable()


def slowdown(probes: List[float]) -> float:
    """How many times slower than the reference host the probes ran."""
    return statistics.median(probes) / REFERENCE_PROBE_S


def stolen_seconds() -> float:
    """CPU seconds the hypervisor has stolen from all CPUs since boot.

    0 where the kernel does not report steal time.
    """
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0
