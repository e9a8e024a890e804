"""Declarative campaign specifications.

A :class:`CampaignSpec` describes a full experiment campaign — the
cartesian product of problem instances × DVS methods × probability
policies × run seeds, sharing one base :class:`SynthesisConfig` — and
expands it into an ordered queue of :class:`JobSpec` jobs.  The spec
round-trips through JSON (``save``/``load``), which is what makes a
campaign resumable: the run directory carries its own ``spec.json``,
so ``repro-mm campaign --resume <dir>`` needs nothing else.

Seed pairing follows the paper's protocol: run ``i`` of *every*
probability policy on an instance uses seed ``base_seed + i``, so the
with/without-Ψ comparison is paired (both GAs start from the same
initial population and differ only in the fitness weighting).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Union

from repro.durable import atomic_write_json
from repro.errors import CampaignError
from repro.synthesis.config import DvsMethod, SynthesisConfig

PathLike = Union[str, pathlib.Path]

#: Schema version of serialised specs; bump on incompatible change.
SPEC_VERSION = 1


@dataclass(frozen=True)
class JobSpec:
    """One synthesis run: an instance × DVS × policy × seed cell."""

    instance: str
    dvs: DvsMethod
    use_probabilities: bool
    seed: int

    @property
    def job_id(self) -> str:
        """Stable, filesystem-safe identifier used for files + events."""
        policy = "prob" if self.use_probabilities else "noprob"
        return f"{self.instance}-{self.dvs.value}-{policy}-s{self.seed}"

    def configure(self, base: SynthesisConfig) -> SynthesisConfig:
        """The job's full config: the campaign base plus this cell."""
        return base.with_updates(
            dvs=self.dvs,
            use_probabilities=self.use_probabilities,
            seed=self.seed,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "instance": self.instance,
            "dvs": self.dvs.value,
            "use_probabilities": self.use_probabilities,
            "seed": self.seed,
        }


@dataclass
class CampaignSpec:
    """The declarative description of one experiment campaign.

    Attributes
    ----------
    name:
        Human-readable campaign name (appears in events and reports).
    instances:
        Problem names resolvable by the runner's problem loader
        (default: :mod:`repro.benchgen.registry`).
    dvs_methods / probability_settings:
        The method and policy axes of the product.  The defaults
        reproduce the paper's comparison: no DVS, both policies.
    runs / base_seed:
        ``runs`` repetitions per cell, seeded ``base_seed + run``.
    config:
        Base synthesis configuration shared by every job.
    checkpoint_every:
        Persist a GA checkpoint every this many generations (≥ 1).
    max_retries / retry_backoff:
        Bounded retry for jobs whose worker pool died: up to
        ``max_retries`` further attempts, sleeping
        ``retry_backoff × 2**attempt`` seconds before each.
    """

    name: str
    instances: List[str]
    dvs_methods: List[DvsMethod] = field(
        default_factory=lambda: [DvsMethod.NONE]
    )
    probability_settings: List[bool] = field(
        default_factory=lambda: [False, True]
    )
    runs: int = 1
    base_seed: int = 0
    config: SynthesisConfig = field(default_factory=SynthesisConfig)
    checkpoint_every: int = 5
    max_retries: int = 2
    retry_backoff: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign name must be non-empty")
        if not self.instances:
            raise CampaignError("campaign needs at least one instance")
        if len(set(self.instances)) != len(self.instances):
            raise CampaignError("duplicate instances in campaign spec")
        self.dvs_methods = [
            m if isinstance(m, DvsMethod) else DvsMethod(m)
            for m in self.dvs_methods
        ]
        if not self.dvs_methods:
            raise CampaignError("campaign needs at least one DVS method")
        if len(set(self.dvs_methods)) != len(self.dvs_methods):
            raise CampaignError("duplicate DVS methods in campaign spec")
        if not self.probability_settings:
            raise CampaignError(
                "campaign needs at least one probability setting"
            )
        if len(set(self.probability_settings)) != len(
            self.probability_settings
        ):
            raise CampaignError(
                "duplicate probability settings in campaign spec"
            )
        if self.runs < 1:
            raise CampaignError("runs must be at least 1")
        if self.checkpoint_every < 1:
            raise CampaignError("checkpoint_every must be at least 1")
        if self.max_retries < 0:
            raise CampaignError("max_retries must be non-negative")
        if self.retry_backoff < 0:
            raise CampaignError("retry_backoff must be non-negative")

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def jobs(self) -> List[JobSpec]:
        """The ordered job queue (deterministic expansion order)."""
        queue: List[JobSpec] = []
        for instance in self.instances:
            for dvs in self.dvs_methods:
                for run in range(self.runs):
                    for use_probabilities in self.probability_settings:
                        queue.append(
                            JobSpec(
                                instance=instance,
                                dvs=dvs,
                                use_probabilities=use_probabilities,
                                seed=self.base_seed + run,
                            )
                        )
        return queue

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "instances": list(self.instances),
            "dvs_methods": [m.value for m in self.dvs_methods],
            "probability_settings": list(self.probability_settings),
            "runs": self.runs,
            "base_seed": self.base_seed,
            "config": self.config.to_dict(),
            "checkpoint_every": self.checkpoint_every,
            "max_retries": self.max_retries,
            "retry_backoff": self.retry_backoff,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        values = dict(data)
        version = values.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise CampaignError(
                f"unsupported campaign spec version {version!r} "
                f"(expected {SPEC_VERSION})"
            )
        known = {
            "name",
            "instances",
            "dvs_methods",
            "probability_settings",
            "runs",
            "base_seed",
            "config",
            "checkpoint_every",
            "max_retries",
            "retry_backoff",
        }
        unknown = sorted(set(values) - known)
        if unknown:
            raise CampaignError(
                f"unknown campaign spec keys: {unknown}; valid keys are "
                f"{sorted(known)}"
            )
        if "config" in values and not isinstance(
            values["config"], SynthesisConfig
        ):
            values["config"] = SynthesisConfig.from_dict(values["config"])
        try:
            return cls(**values)
        except TypeError as exc:
            raise CampaignError(f"invalid campaign spec: {exc}") from exc

    def save(self, path: PathLike) -> None:
        atomic_write_json(path, self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: PathLike) -> "CampaignSpec":
        path = pathlib.Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise CampaignError(f"no campaign spec at {path}") from None
        except json.JSONDecodeError as exc:
            raise CampaignError(
                f"campaign spec {path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)
