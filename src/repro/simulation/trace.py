"""Mode traces: timed sequences of mode visits."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import SpecificationError
from repro.simulation.markov import ModeProcess


@dataclass(frozen=True)
class ModeVisit:
    """One contiguous stay in a mode."""

    mode: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def generate_trace(
    process: ModeProcess,
    horizon: float,
    rng: random.Random,
    initial_mode: Optional[str] = None,
) -> List[ModeVisit]:
    """Sample a mode trace covering ``[0, horizon]``.

    Consecutive jump-chain self-loops are merged into a single visit,
    so the returned visits alternate between distinct modes (matching
    the OMSM semantics in which a transition is a mode *change*).  The
    final visit is truncated at the horizon, which must be finite and
    positive.
    """
    if not 0 < horizon < math.inf:
        # NaN fails both comparisons.
        raise SpecificationError(
            f"simulation horizon must be finite and positive, got {horizon!r}"
        )
    current = initial_mode or process.initial_mode(rng)
    if current not in process.omsm.mode_names:
        raise SpecificationError(f"unknown initial mode {current!r}")

    visits: List[ModeVisit] = []
    now = 0.0
    dwell = process.sample_dwell(current, rng)
    while now < horizon:
        successor = process.next_mode(current, rng)
        if successor == current:
            # Self-loop: extend the current stay.
            dwell += process.sample_dwell(current, rng)
            continue
        end = min(now + dwell, horizon)
        visits.append(ModeVisit(mode=current, start=now, end=end))
        now = end
        current = successor
        dwell = process.sample_dwell(current, rng)
    if not visits or visits[-1].end < horizon:
        # The loop exited with residual time in `current`.
        start = visits[-1].end if visits else 0.0
        if start < horizon:
            visits.append(
                ModeVisit(mode=current, start=start, end=horizon)
            )
    return visits

