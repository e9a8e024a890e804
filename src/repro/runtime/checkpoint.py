"""Durable per-job checkpoints and results in a campaign run directory.

Layout of a run directory::

    <run_dir>/
        spec.json                  # the CampaignSpec (written once)
        events.jsonl               # structured event stream
        checkpoints/<job_id>.json  # latest GA snapshot per running job
        results/<job_id>.json      # final record per completed job

Checkpoints are written atomically
(:func:`repro.durable.atomic_write_json`) so a kill at any instant
leaves either the previous or the new snapshot — never a torn file.
Each checkpoint embeds its format version, the job id and the full
synthesis config; on resume all three are verified, because silently
resuming a snapshot under a different configuration would break the
bit-identical guarantee.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Optional, Union

from repro.durable import atomic_write_json, is_version
from repro.errors import CampaignError, SynthesisError
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.state import GAState

PathLike = Union[str, pathlib.Path]

CHECKPOINT_DIRNAME = "checkpoints"
RESULTS_DIRNAME = "results"
SPEC_FILENAME = "spec.json"

#: Checkpoint file format version; bump on incompatible change.
#: Checkpoints written before the field existed carry none and load as
#: version 1.
CHECKPOINT_VERSION = 1


def _read_json(path: pathlib.Path, what: str) -> Dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CampaignError(f"corrupt {what} at {path}: {exc}") from exc


def prepare_run_dir(run_dir: PathLike) -> pathlib.Path:
    """Create the run directory skeleton (idempotent)."""
    run_dir = pathlib.Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / CHECKPOINT_DIRNAME).mkdir(exist_ok=True)
    (run_dir / RESULTS_DIRNAME).mkdir(exist_ok=True)
    return run_dir


def spec_path(run_dir: PathLike) -> pathlib.Path:
    return pathlib.Path(run_dir) / SPEC_FILENAME


def checkpoint_path(run_dir: PathLike, job_id: str) -> pathlib.Path:
    return pathlib.Path(run_dir) / CHECKPOINT_DIRNAME / f"{job_id}.json"


def result_path(run_dir: PathLike, job_id: str) -> pathlib.Path:
    return pathlib.Path(run_dir) / RESULTS_DIRNAME / f"{job_id}.json"


# ----------------------------------------------------------------------
# GA checkpoints
# ----------------------------------------------------------------------


def write_checkpoint(
    run_dir: PathLike,
    job_id: str,
    state: GAState,
    config: SynthesisConfig,
) -> pathlib.Path:
    """Atomically persist one GA snapshot for ``job_id``."""
    path = checkpoint_path(run_dir, job_id)
    atomic_write_json(
        path,
        {
            "version": CHECKPOINT_VERSION,
            "job_id": job_id,
            "config": config.to_dict(),
            "state": state.to_dict(),
        },
    )
    return path


def load_checkpoint(
    run_dir: PathLike,
    job_id: str,
    config: Optional[SynthesisConfig] = None,
) -> Optional[GAState]:
    """The latest snapshot for ``job_id``, or ``None`` when absent.

    With ``config`` given, the stored configuration must match it
    exactly — a mismatch (edited spec, different code defaults) raises
    :class:`CampaignError` instead of producing a silently
    non-reproducible resume.  The stored dict is compared after
    :meth:`SynthesisConfig.from_dict` normalisation, so checkpoints that
    carry retired keys still resume.
    """
    path = checkpoint_path(run_dir, job_id)
    if not path.exists():
        return None
    data = _read_json(path, "checkpoint")
    version = data.get("version", CHECKPOINT_VERSION)
    if not is_version(version, CHECKPOINT_VERSION):
        raise CampaignError(
            f"checkpoint {path} has unsupported version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    if data.get("job_id") != job_id:
        raise CampaignError(
            f"checkpoint {path} belongs to job {data.get('job_id')!r}, "
            f"not {job_id!r}"
        )
    if config is not None and _stored_config(data) != config:
        raise CampaignError(
            f"checkpoint {path} was written under a different synthesis "
            f"configuration; delete it to restart the job from scratch"
        )
    return GAState.from_dict(data["state"])


def _stored_config(data: Dict[str, Any]) -> Optional[SynthesisConfig]:
    """The checkpoint's configuration, or ``None`` if it does not load."""
    stored = data.get("config")
    if not isinstance(stored, dict):
        return None
    try:
        return SynthesisConfig.from_dict(stored)
    except (SynthesisError, TypeError, ValueError):
        return None


def clear_checkpoint(run_dir: PathLike, job_id: str) -> None:
    checkpoint_path(run_dir, job_id).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Job results
# ----------------------------------------------------------------------


def write_result(
    run_dir: PathLike, job_id: str, record: Dict[str, Any]
) -> pathlib.Path:
    path = result_path(run_dir, job_id)
    atomic_write_json(path, record)
    return path


def load_result(
    run_dir: PathLike, job_id: str
) -> Optional[Dict[str, Any]]:
    path = result_path(run_dir, job_id)
    if not path.exists():
        return None
    return _read_json(path, "job result")
