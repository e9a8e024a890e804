"""The operational mode state machine (OMSM) — the top-level model.

The OMSM ``ϒ(Ω, Θ)`` (paper Section 2.1.1) is a directed cyclic graph:
nodes are operational modes, edges are mode transitions annotated with a
maximal transition time ``t_T^max`` that any implementation must respect
(FPGA reconfiguration between modes consumes time).  Modes are mutually
exclusive — exactly one is active at any instant — and each carries an
execution probability; the probabilities over all modes sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Set, Tuple

from repro.errors import SpecificationError
from repro.specification.mode import Mode

#: Tolerance used when checking that mode probabilities sum to one.
_PROBABILITY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ModeTransition:
    """A directed transition ``T = (O_x, O_y)`` with time limit.

    ``max_time`` is ``t_T^max``: the reconfiguration performed while
    switching from ``src`` to ``dst`` (e.g. reloading FPGA cores) must
    complete within this bound.  ``math.inf`` means unconstrained.
    """

    src: str
    dst: str
    max_time: float = math.inf

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise SpecificationError(
                f"mode transition may not be a self-loop ({self.src!r})"
            )
        if self.max_time <= 0:
            raise SpecificationError(
                f"transition {self.src!r}->{self.dst!r}: max_time must be "
                f"positive, got {self.max_time}"
            )

    @property
    def key(self) -> Tuple[str, str]:
        return (self.src, self.dst)


class OMSM:
    """An operational mode state machine: modes + transitions.

    Parameters
    ----------
    name:
        Application identifier.
    modes:
        The mode set ``Ω``.  Probabilities must sum to one (within a
        small tolerance); mode names must be unique.
    transitions:
        The transition set ``Θ``.  Endpoints must name existing modes.
    normalize:
        When true, mode probabilities are rescaled to sum exactly to one
        instead of being validated strictly.  Useful for specs quoted
        with rounded percentages (the paper's smart phone example quotes
        probabilities that sum to 1.00 only after rounding).
    """

    def __init__(
        self,
        name: str,
        modes: Sequence[Mode],
        transitions: Sequence[ModeTransition] = (),
        normalize: bool = False,
    ) -> None:
        if not name:
            raise SpecificationError("OMSM name must be non-empty")
        if not modes:
            raise SpecificationError(f"OMSM {name!r}: needs at least one mode")
        self.name = name
        self._modes: Dict[str, Mode] = {}
        for mode in modes:
            if mode.name in self._modes:
                raise SpecificationError(
                    f"OMSM {name!r}: duplicate mode name {mode.name!r}"
                )
            self._modes[mode.name] = mode
        total = sum(m.probability for m in modes)
        if normalize:
            if total <= 0:
                raise SpecificationError(
                    f"OMSM {name!r}: probabilities sum to {total}; "
                    "cannot normalise"
                )
            for mode in self._modes.values():
                mode.probability /= total
        elif abs(total - 1.0) > _PROBABILITY_TOLERANCE:
            raise SpecificationError(
                f"OMSM {name!r}: mode probabilities sum to {total:.6f}, "
                "expected 1.0 (pass normalize=True to rescale)"
            )
        self._transitions: Dict[Tuple[str, str], ModeTransition] = {}
        for transition in transitions:
            for endpoint in transition.key:
                if endpoint not in self._modes:
                    raise SpecificationError(
                        f"OMSM {name!r}: transition references unknown mode "
                        f"{endpoint!r}"
                    )
            if transition.key in self._transitions:
                raise SpecificationError(
                    f"OMSM {name!r}: duplicate transition "
                    f"{transition.src!r}->{transition.dst!r}"
                )
            self._transitions[transition.key] = transition

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def modes(self) -> Tuple[Mode, ...]:
        """All modes, in insertion order."""
        return tuple(self._modes.values())

    @property
    def mode_names(self) -> Tuple[str, ...]:
        return tuple(self._modes)

    @property
    def transitions(self) -> Tuple[ModeTransition, ...]:
        """All transitions, in insertion order."""
        return tuple(self._transitions.values())

    def mode(self, name: str) -> Mode:
        """Return the mode called ``name`` or raise ``SpecificationError``."""
        try:
            return self._modes[name]
        except KeyError:
            raise SpecificationError(
                f"OMSM {self.name!r}: no mode named {name!r}"
            ) from None

    def transition(self, src: str, dst: str) -> ModeTransition:
        """Return transition ``src -> dst`` or raise ``SpecificationError``."""
        try:
            return self._transitions[(src, dst)]
        except KeyError:
            raise SpecificationError(
                f"OMSM {self.name!r}: no transition {src!r}->{dst!r}"
            ) from None

    def has_transition(self, src: str, dst: str) -> bool:
        return (src, dst) in self._transitions

    def outgoing(self, mode_name: str) -> Tuple[ModeTransition, ...]:
        """Transitions leaving ``mode_name``."""
        self.mode(mode_name)
        return tuple(
            t for t in self._transitions.values() if t.src == mode_name
        )

    def incoming(self, mode_name: str) -> Tuple[ModeTransition, ...]:
        """Transitions entering ``mode_name``."""
        self.mode(mode_name)
        return tuple(
            t for t in self._transitions.values() if t.dst == mode_name
        )

    def __len__(self) -> int:
        return len(self._modes)

    def __iter__(self) -> Iterator[Mode]:
        return iter(self._modes.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OMSM({self.name!r}, modes={len(self._modes)}, "
            f"transitions={len(self._transitions)})"
        )

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------

    def all_task_types(self) -> Set[str]:
        """Union of the task-type sets of every mode."""
        types: Set[str] = set()
        for mode in self._modes.values():
            types |= mode.task_graph.task_types()
        return types

    def shared_task_types(self) -> Set[str]:
        """Task types occurring in two or more modes.

        These are the types for which cross-mode hardware sharing is
        possible — the distinctive multi-mode opportunity of paper
        Section 2.1.2.
        """
        seen: Dict[str, int] = {}
        for mode in self._modes.values():
            for task_type in mode.task_graph.task_types():
                seen[task_type] = seen.get(task_type, 0) + 1
        return {t for t, count in seen.items() if count >= 2}

    def probability_vector(self) -> Dict[str, float]:
        """Mapping from mode name to execution probability ``Ψ``."""
        return {m.name: m.probability for m in self._modes.values()}

    def uniform_probability_vector(self) -> Dict[str, float]:
        """Uniform probabilities ``Ψ = 1/|Ω|``.

        This is what the paper's baseline — synthesis *neglecting* mode
        execution probabilities — effectively optimises for.
        """
        uniform = 1.0 / len(self._modes)
        return {name: uniform for name in self._modes}
