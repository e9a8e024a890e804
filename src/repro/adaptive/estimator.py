"""Streaming Ψ estimation with exponential forgetting.

The estimator consumes ``(mode, dwell)`` events — from
:func:`repro.simulation.trace.generate_trace` visits or any other
source — and maintains an exponentially-forgotten estimate of the
fraction of time spent in each mode.  With forgetting time constant
``τ`` the weight credited to mode ``m`` is

    w_m(t) = ∫ 1[mode(s) = m] · e^{-(t-s)/τ} ds

so a dwell of length ``d`` in mode ``m`` first decays *all* weights by
``e^{-d/τ}`` and then adds ``τ·(1 - e^{-d/τ})`` to ``w_m`` (the closed
form of the integral over the dwell).  The estimate is the normalised
weight vector, optionally blended with a prior (typically the
design-time Ψ) whose influence fades as real observation accumulates.

``confidence() = 1 - e^{-T/τ}`` — the fraction of the steady-state
total weight already accumulated after ``T`` seconds of observation —
gives downstream consumers (the drift detector) a principled gate
against acting on a cold estimator.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import SpecificationError

#: ln 2 — converts a half-life into the exponential time constant.
_LN2 = math.log(2.0)


class PsiEstimator:
    """Exponentially-forgotten mode-time-fraction estimator.

    Parameters
    ----------
    mode_names:
        The modes of the OMSM; the estimate always covers exactly this
        set (unseen modes estimate to the prior/zero mass).
    half_life:
        Observation half-life in seconds of simulated time: weight from
        ``half_life`` seconds ago counts half as much as fresh weight.
    prior:
        Optional prior Ψ (e.g. the design-time vector).  Blended with
        the observed weights with mass ``prior_weight``.
    prior_weight:
        Pseudo-observation mass of the prior, in seconds.  ``0``
        disables the prior entirely.
    """

    def __init__(
        self,
        mode_names: Sequence[str],
        half_life: float,
        prior: Optional[Mapping[str, float]] = None,
        prior_weight: float = 0.0,
    ) -> None:
        if not mode_names:
            raise SpecificationError("estimator needs at least one mode")
        if half_life <= 0:
            raise SpecificationError(
                f"half_life must be positive, got {half_life}"
            )
        if prior_weight < 0:
            raise SpecificationError(
                f"prior_weight must be non-negative, got {prior_weight}"
            )
        if prior is not None:
            missing = [m for m in mode_names if m not in prior]
            if missing:
                raise SpecificationError(
                    f"prior probability vector misses modes {missing}"
                )
        self._mode_names: Tuple[str, ...] = tuple(mode_names)
        self.half_life = half_life
        self.tau = half_life / _LN2
        self._weights: Dict[str, float] = {m: 0.0 for m in mode_names}
        self._prior = (
            {m: float(prior[m]) for m in mode_names}
            if prior is not None
            else None
        )
        self._prior_weight = prior_weight if prior is not None else 0.0
        self.observed_time = 0.0
        self.observations = 0

    @property
    def mode_names(self) -> Tuple[str, ...]:
        return self._mode_names

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def observe(self, mode: str, dwell: float) -> None:
        """Account one contiguous stay of ``dwell`` seconds in ``mode``."""
        if mode not in self._weights:
            raise SpecificationError(
                f"estimator knows no mode {mode!r} "
                f"(modes: {list(self._mode_names)})"
            )
        if not math.isfinite(dwell) or dwell < 0:
            raise SpecificationError(
                f"dwell time must be finite and non-negative, got {dwell}"
            )
        if dwell == 0:
            return
        factor = math.exp(-dwell / self.tau)
        for name in self._weights:
            self._weights[name] *= factor
        self._weights[mode] += self.tau * (1.0 - factor)
        self.observed_time += dwell
        self.observations += 1

    def observe_trace(self, visits: Iterable) -> None:
        """Feed a sequence of objects with ``mode`` and ``duration``.

        Accepts :class:`repro.simulation.trace.ModeVisit` instances or
        plain ``(mode, dwell)`` pairs.
        """
        for visit in visits:
            if isinstance(visit, tuple):
                mode, dwell = visit
            else:
                mode, dwell = visit.mode, visit.duration
            self.observe(mode, dwell)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def estimate(self) -> Dict[str, float]:
        """The current Ψ estimate — normalised, prior-blended.

        The prior behaves like ``prior_weight`` seconds of observation
        made *before* t = 0: it is subject to the same exponential
        forgetting as real weight, so its influence genuinely fades —
        after a few half-lives of observation the estimate is pure
        data.
        """
        prior_mass = (
            self._prior_weight
            * math.exp(-self.observed_time / self.tau)
            if self._prior is not None
            else 0.0
        )
        totals: Dict[str, float] = {}
        for name in self._mode_names:
            mass = self._weights[name]
            if self._prior is not None:
                mass += prior_mass * self._prior[name]
            totals[name] = mass
        total = sum(totals.values())
        if total <= 0.0:
            # Nothing observed and no prior: fall back to uniform.
            uniform = 1.0 / len(self._mode_names)
            return {name: uniform for name in self._mode_names}
        return {name: mass / total for name, mass in totals.items()}

    def confidence(self) -> float:
        """Saturation of the forgetting window, in ``[0, 1)``.

        ``1 - e^{-T/τ}`` where ``T`` is the total observed time: ~0.5
        after one half-life of observation, → 1 as the window fills.
        """
        return 1.0 - math.exp(-self.observed_time / self.tau)

    def reset(self) -> None:
        """Discard all observations (the prior survives)."""
        for name in self._weights:
            self._weights[name] = 0.0
        self.observed_time = 0.0
        self.observations = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PsiEstimator(modes={len(self._mode_names)}, "
            f"half_life={self.half_life}, "
            f"observed={self.observed_time:.3g}s, "
            f"confidence={self.confidence():.3f})"
        )
