"""The ``run_summary.json`` document a campaign exports.

One JSON file per run directory, written atomically when the campaign
finishes (and, best-effort, when it is interrupted), answering "what
did this campaign do and where did the time go" without replaying the
event stream: job totals, per-job outcome rows, the evaluation-engine
perf ledger merged across jobs — including the per-mode phase
breakdown, so Equation (1)'s probability-weighted fitness cost is
attributable to operational modes — and a dump of the process-global
metrics registry.

Schema (``version`` 1)::

    {
      "version": 1,
      "campaign": str,
      "generated_at": float,        # unix seconds
      "interrupted": bool,
      "jobs": {"total": int, "completed": int,
               "failed": int, "pending": int},
      "retries": int,
      "wall_seconds": float | null, # first..last event timestamp
      "job_results": {job_id: {"power": float, "cpu_time": float,
                               "feasible": bool, "generations": int,
                               "evaluations": int, "attempts": int}},
      "failures": {job_id: str},
      "perf": {...},                # PerfStats.to_dict() of the merge
                                    # of every job record's perf: each
                                    # PerfStats field and derived rate
      "metrics": {"counters": {...}, "gauges": {...},
                  "histograms": {...}},
    }
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Dict, Mapping, Optional, Union

from repro.durable import atomic_write_json
from repro.engine.profile import PerfStats

PathLike = Union[str, pathlib.Path]

#: File name of the summary inside a campaign run directory.
RUN_SUMMARY_FILENAME = "run_summary.json"

#: Schema version; bump on incompatible change.
SUMMARY_VERSION = 1

#: Per-job result fields copied into the summary rows.
_JOB_FIELDS = (
    "power",
    "cpu_time",
    "feasible",
    "generations",
    "evaluations",
    "attempts",
)

def run_summary_path(run_dir: PathLike) -> pathlib.Path:
    return pathlib.Path(run_dir) / RUN_SUMMARY_FILENAME


def build_run_summary(
    campaign: str,
    total_jobs: int,
    job_results: Mapping[str, Mapping[str, Any]],
    failures: Mapping[str, str],
    events: List[Mapping[str, Any]],
    metrics: Optional[Mapping[str, Any]] = None,
    interrupted: bool = False,
    clock: Any = time.time,
) -> Dict[str, Any]:
    """Assemble the summary document (see the module docstring schema).

    ``job_results`` maps job ids to their persisted result records (the
    :meth:`~repro.runtime.runner.JobResult.to_dict` shape); ``events``
    is the campaign's event list, used only for wall-clock bounds and
    the retry count.
    """
    timestamps = [
        float(event["ts"])
        for event in events
        if isinstance(event.get("ts"), (int, float))
    ]
    wall_seconds = (
        max(timestamps) - min(timestamps) if len(timestamps) > 1 else None
    )
    retries = sum(
        1 for event in events if event.get("event") == "job_retried"
    )
    completed = len(job_results)
    failed = len(failures)
    rows = {
        job_id: {name: record.get(name) for name in _JOB_FIELDS}
        for job_id, record in sorted(job_results.items())
    }
    perf = PerfStats()
    for record in job_results.values():
        perf.merge(PerfStats.from_dict(record.get("perf") or {}))
    return {
        "version": SUMMARY_VERSION,
        "campaign": campaign,
        "generated_at": round(float(clock()), 6),
        "interrupted": bool(interrupted),
        "jobs": {
            "total": total_jobs,
            "completed": completed,
            "failed": failed,
            "pending": max(0, total_jobs - completed - failed),
        },
        "retries": retries,
        "wall_seconds": wall_seconds,
        "job_results": rows,
        "failures": dict(sorted(failures.items())),
        "perf": perf.to_dict(),
        "metrics": dict(metrics) if metrics is not None else {},
    }


def write_run_summary(
    run_dir: PathLike, summary: Mapping[str, Any]
) -> pathlib.Path:
    """Atomically write ``run_summary.json`` into ``run_dir``."""
    path = run_summary_path(run_dir)
    atomic_write_json(path, summary, indent=2, sort_keys=True)
    return path


def load_run_summary(run_dir: PathLike) -> Dict[str, Any]:
    """Read a run directory's summary back (raises on absence)."""
    from repro.errors import CampaignError

    path = run_summary_path(run_dir)
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise CampaignError(f"no run summary at {path}") from None
    except json.JSONDecodeError as exc:
        raise CampaignError(
            f"corrupt run summary at {path}: {exc}"
        ) from exc
