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

from repro.durable import atomic_write_json, is_version
from repro.errors import CampaignError, SynthesisError
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


def _check_items(name: str, values: Any, kind: type, plural: str) -> None:
    """Refuse a spec field that is not a list of ``kind`` values."""
    if isinstance(values, str) or not all(
        isinstance(value, kind) for value in values
    ):
        raise CampaignError(
            f"invalid campaign spec field {name!r}: {values!r} is not a "
            f"list of {plural}"
        )


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

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign name must be non-empty")
        _check_items("instances", self.instances, str, "names")
        _check_items(
            "probability_settings", self.probability_settings, bool, "booleans"
        )
        for name in ("runs", "base_seed", "checkpoint_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise CampaignError(
                    f"invalid campaign spec field {name!r}: {value!r} is not "
                    f"an integer"
                )
        if not self.instances:
            raise CampaignError("campaign needs at least one instance")
        if len(set(self.instances)) != len(self.instances):
            raise CampaignError("duplicate instances in campaign spec")
        try:
            self.dvs_methods = [DvsMethod(m) for m in self.dvs_methods]
        except ValueError as exc:
            raise CampaignError(
                f"invalid campaign spec field 'dvs_methods': {exc}; valid "
                f"values are {[m.value for m in DvsMethod]}"
            ) from None
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
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        values = dict(data)
        version = values.pop("version", SPEC_VERSION)
        if not is_version(version, SPEC_VERSION):
            raise CampaignError(
                f"unsupported campaign spec version {version!r} "
                f"(expected {SPEC_VERSION})"
            )
        # Earlier releases retried a job whose worker pool died; a dead
        # pool now falls back in place, so the retry keys are dropped.
        for key in ("max_retries", "retry_backoff"):
            values.pop(key, None)
        known = {
            "name",
            "instances",
            "dvs_methods",
            "probability_settings",
            "runs",
            "base_seed",
            "config",
            "checkpoint_every",
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
            try:
                values["config"] = SynthesisConfig.from_dict(values["config"])
            except (SynthesisError, TypeError, ValueError) as exc:
                raise CampaignError(
                    f"invalid campaign spec field 'config': {exc}"
                ) from None
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
