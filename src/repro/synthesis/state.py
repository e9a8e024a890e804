"""Checkpointable GA loop state.

A :class:`GAState` captures everything the
:class:`~repro.synthesis.cosynthesis.MultiModeSynthesizer` needs to
continue a run *bit-identically* after a process death: the RNG state,
the current population, the best-so-far genome and fitness, the
stall/stagnation counters and the fitness history.  The snapshot is
taken at a generation boundary (after breeding and the improvement
mutations, i.e. the state from which generation ``generation + 1``
would be evaluated), so resuming replays the exact remaining
generations the uninterrupted run would have executed.

Evaluation caches are deliberately *not* part of the state: evaluation
is a pure function of the genome, so an empty cache after resume only
re-spends CPU time — it cannot change any result.  The
``evaluations`` counter carries across and goes on counting the
evaluations actually run, so a resumed run's count includes the
genomes it re-evaluates and may exceed the uninterrupted run's.

Everything is JSON-serialisable via :meth:`GAState.to_dict` /
:meth:`GAState.from_dict`; the Mersenne-Twister state tuple is encoded
as nested lists and restored exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.durable import is_version
from repro.errors import SynthesisError

#: Schema version of serialised snapshots; bump on incompatible change.
STATE_VERSION = 1


def encode_rng_state(state: Tuple[Any, ...]) -> List[Any]:
    """``random.Random.getstate()`` → a JSON-safe nested list."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(data: Sequence[Any]) -> Tuple[Any, ...]:
    """The inverse of :func:`encode_rng_state` (exact round-trip)."""
    version, internal, gauss_next = data
    return (version, tuple(internal), gauss_next)


@dataclass
class GAState:
    """One resumable snapshot of the synthesis loop.

    ``generation`` is the index of the last *completed* generation;
    resuming continues with generation ``generation + 1``.
    ``best_genes`` is ``None`` while no evaluable candidate has been
    seen (then ``best_fitness`` is ``+inf``).
    """

    generation: int
    rng_state: Tuple[Any, ...]
    population: List[Tuple[str, ...]]
    best_genes: Optional[Tuple[str, ...]]
    best_fitness: float
    stagnant: int
    area_stall: int
    timing_stall: int
    transition_stall: int
    history: List[float] = field(default_factory=list)
    evaluations: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable view (infinities encoded as ``None``)."""
        return {
            "version": STATE_VERSION,
            "generation": self.generation,
            "rng_state": encode_rng_state(self.rng_state),
            "population": [list(genes) for genes in self.population],
            "best_genes": (
                list(self.best_genes)
                if self.best_genes is not None
                else None
            ),
            "best_fitness": (
                self.best_fitness
                if math.isfinite(self.best_fitness)
                else None
            ),
            "stagnant": self.stagnant,
            "area_stall": self.area_stall,
            "timing_stall": self.timing_stall,
            "transition_stall": self.transition_stall,
            "history": [
                value if math.isfinite(value) else None
                for value in self.history
            ],
            "evaluations": self.evaluations,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GAState":
        version = data.get("version")
        if not is_version(version, STATE_VERSION):
            raise SynthesisError(
                f"unsupported GA state version {version!r} "
                f"(expected {STATE_VERSION})"
            )
        best_fitness = data["best_fitness"]
        return cls(
            generation=int(data["generation"]),
            rng_state=decode_rng_state(data["rng_state"]),
            population=[
                tuple(genes) for genes in data["population"]
            ],
            best_genes=(
                tuple(data["best_genes"])
                if data["best_genes"] is not None
                else None
            ),
            best_fitness=(
                float(best_fitness)
                if best_fitness is not None
                else math.inf
            ),
            stagnant=int(data["stagnant"]),
            area_stall=int(data["area_stall"]),
            timing_stall=int(data["timing_stall"]),
            transition_stall=int(data["transition_stall"]),
            history=[
                float(value) if value is not None else math.inf
                for value in data["history"]
            ],
            evaluations=int(data["evaluations"]),
        )

    def restore_rng(self) -> random.Random:
        """A fresh ``random.Random`` positioned at the saved state."""
        rng = random.Random()
        rng.setstate(self.rng_state)
        return rng
