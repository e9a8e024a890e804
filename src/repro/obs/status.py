"""Live campaign status and event tailing.

Everything here works from a run directory's ``events.jsonl`` alone —
no checkpoint, spec or result files are required — so a monitoring
shell can inspect a campaign that is still running (or crashed) on
another machine with nothing but the event stream synced over.

:func:`tail_events` is the shared reader: it yields complete events in
order, buffers torn trailing writes until the rest of the line arrives,
and can either stop at end-of-file or keep following the stream until a
terminal campaign event shows up.  :func:`campaign_status` folds one
pass of those events into a :class:`CampaignStatus` with progress,
failure counts and an ETA extrapolated from the wall-clock times of
already finished jobs.

A campaign that runs its jobs on several workers logs each job's events
as one block when the job ends, so its status lists no running job; a
job's wall time still comes from its own ``job_started`` and
``job_finished`` timestamps, and the ETA divides the jobs not yet
started among the segment's workers.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

PathLike = Union[str, pathlib.Path]

#: Event kinds that end a campaign process (tailing stops after them).
TERMINAL_EVENTS = ("campaign_finished", "campaign_interrupted")


# ----------------------------------------------------------------------
# Tailing
# ----------------------------------------------------------------------


def tail_events(
    path: PathLike,
    follow: bool = False,
    poll_interval: float = 0.25,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[Dict[str, Any]]:
    """Yield events from ``events.jsonl``, optionally following it live.

    With ``follow=False`` the iterator stops at the current end of
    file; a torn trailing line (crash mid-write) is silently dropped,
    matching :func:`repro.runtime.events.iter_events`.  With
    ``follow=True`` it keeps polling for new lines — a torn tail is
    *buffered* until the writer completes it — and stops once a
    terminal campaign event (``campaign_finished`` /
    ``campaign_interrupted``) has been yielded.
    """
    path = pathlib.Path(path)
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        from repro.errors import CampaignError

        raise CampaignError(f"no event stream at {path}") from None
    with handle:
        buffer = ""
        while True:
            line = handle.readline()
            if not line:
                if not follow:
                    return
                sleep(poll_interval)
                continue
            buffer += line
            if not buffer.endswith("\n"):
                # Torn write: wait for the writer to finish the line
                # (or drop it at EOF when not following).
                if not follow:
                    return
                continue
            stripped = buffer.strip()
            buffer = ""
            if not stripped:
                continue
            try:
                event = json.loads(stripped)
            except json.JSONDecodeError:
                # A complete-but-corrupt line; skip it rather than kill
                # a monitoring loop.
                continue
            yield event
            if event.get("event") in TERMINAL_EVENTS and follow:
                return


# ----------------------------------------------------------------------
# Status aggregation
# ----------------------------------------------------------------------


@dataclass
class CampaignStatus:
    """One-pass aggregation of a campaign's event stream."""

    campaign: Optional[str] = None
    total_jobs: int = 0
    completed: int = 0
    skipped: int = 0
    failed: int = 0
    running: List[str] = field(default_factory=list)
    failures: Dict[str, str] = field(default_factory=dict)
    started_ts: Optional[float] = None
    last_ts: Optional[float] = None
    finished: bool = False
    interrupted: bool = False
    #: Campaign workers of the latest segment (1: jobs run in-process).
    workers: int = 1
    #: Wall-clock seconds of each job finished *in this stream*.
    job_wall_seconds: Dict[str, float] = field(default_factory=dict)
    #: job_id -> last reported generation (still-running jobs).
    last_generation: Dict[str, int] = field(default_factory=dict)

    @property
    def done(self) -> int:
        """Jobs no longer pending (completed here, skipped or failed)."""
        return self.completed + self.skipped + self.failed

    @property
    def remaining(self) -> int:
        return max(0, self.total_jobs - self.done)

    @property
    def progress(self) -> float:
        if self.total_jobs <= 0:
            return 0.0
        return self.done / self.total_jobs

    @property
    def mean_job_seconds(self) -> Optional[float]:
        if not self.job_wall_seconds:
            return None
        values = self.job_wall_seconds.values()
        return sum(values) / len(values)

    @property
    def elapsed_seconds(self) -> Optional[float]:
        if self.started_ts is None or self.last_ts is None:
            return None
        return max(0.0, self.last_ts - self.started_ts)

    @property
    def eta_seconds(self) -> Optional[float]:
        """Remaining wall time, extrapolated from finished jobs.

        ``None`` until at least one job has finished in this stream (a
        resumed campaign that has only skipped jobs so far has no
        timing sample yet).  Running jobs count for the time they have
        left relative to the mean, never negative; the jobs not started
        yet share the segment's workers.
        """
        mean = self.mean_job_seconds
        if mean is None or self.finished:
            return None
        estimate = 0.0
        running = set(self.running)
        for job_id in running:
            # job_started ts is tracked in _job_started_ts.
            started = self._job_started_ts.get(job_id)
            elapsed = (
                max(0.0, (self.last_ts or started) - started)
                if started is not None
                else 0.0
            )
            estimate += max(0.0, mean - elapsed)
        estimate += (
            mean * max(0, self.remaining - len(running)) / self.workers
        )
        return estimate

    # Internal: per-job start timestamps.
    _job_started_ts: Dict[str, float] = field(default_factory=dict)


def campaign_status(run_dir: PathLike) -> CampaignStatus:
    """Aggregate ``<run_dir>/events.jsonl`` into a :class:`CampaignStatus`.

    A segment of an unknown stream version is a
    :class:`~repro.errors.CampaignError`.
    """
    from repro.runtime.events import check_segment_version

    path = pathlib.Path(run_dir) / "events.jsonl"
    status = CampaignStatus()
    for event in tail_events(path, follow=False):
        kind = event.get("event")
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            # A worker's block carries the times its events happened.
            status.last_ts = max(float(ts), status.last_ts or float(ts))
            if status.started_ts is None:
                status.started_ts = float(ts)
        job_id = event.get("job_id")
        if kind == "campaign_started":
            check_segment_version(event)
            status.campaign = event.get("campaign")
            status.total_jobs = int(event.get("total_jobs", 0))
            status.workers = max(1, int(event.get("workers", 1)))
            # A resume restarts the stream bookkeeping: every job done
            # in an earlier segment is re-reported as job_skipped, a
            # previously failed one is re-attempted, and a job that was
            # mid-flight when the previous process died is not running
            # any more.  Only the wall-time samples (for the ETA)
            # survive across segments.
            status.finished = False
            status.interrupted = False
            status.completed = 0
            status.skipped = 0
            status.failed = 0
            status.failures.clear()
            status.running.clear()
            status.last_generation.clear()
        elif kind == "job_started" and job_id:
            if job_id not in status.running:
                status.running.append(job_id)
            if isinstance(ts, (int, float)):
                status._job_started_ts[job_id] = float(ts)
        elif kind == "generation" and job_id:
            status.last_generation[job_id] = int(
                event.get("generation", 0)
            )
        elif kind == "job_finished" and job_id:
            status.completed += 1
            if job_id in status.running:
                status.running.remove(job_id)
            status.last_generation.pop(job_id, None)
            started = status._job_started_ts.get(job_id)
            if started is not None and isinstance(ts, (int, float)):
                status.job_wall_seconds[job_id] = max(
                    0.0, float(ts) - started
                )
        elif kind == "job_skipped" and job_id:
            status.skipped += 1
        elif kind == "job_failed" and job_id:
            status.failed += 1
            if job_id in status.running:
                status.running.remove(job_id)
            status.last_generation.pop(job_id, None)
            status.failures[job_id] = str(event.get("error", ""))
        elif kind == "campaign_finished":
            status.finished = True
        elif kind == "campaign_interrupted":
            status.interrupted = True
    return status


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _clock(ts: Any) -> str:
    if not isinstance(ts, (int, float)):
        return "--:--:--"
    return time.strftime("%H:%M:%S", time.localtime(ts))


def _duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "unknown"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{secs:02d}s"


def format_event(event: Dict[str, Any]) -> str:
    """One human-readable line for any campaign event."""
    kind = event.get("event")
    prefix = f"{_clock(event.get('ts'))} "
    job = event.get("job_id", "?")
    if kind == "campaign_started":
        return (
            f"{prefix}campaign {event.get('campaign')!r} started: "
            f"{event.get('pending_jobs')}/{event.get('total_jobs')} "
            f"jobs pending"
        )
    if kind == "job_started":
        resumed = event.get("resumed_from") or 0
        suffix = f" resuming from generation {resumed}" if resumed else ""
        return f"{prefix}[{job}] started{suffix}"
    if kind == "generation":
        best = event.get("best_fitness")
        best_text = f"{best:.6g}" if isinstance(best, float) else "n/a"
        return (
            f"{prefix}[{job}] generation {event.get('generation')}: "
            f"best fitness {best_text}, "
            f"{event.get('evaluations')} evaluations"
        )
    if kind == "checkpointed":
        return (
            f"{prefix}[{job}] checkpointed at generation "
            f"{event.get('generation')}"
        )
    if kind == "job_finished":
        power = event.get("power")
        power_text = (
            f"{power * 1e3:.3f} mW" if isinstance(power, float) else "n/a"
        )
        return (
            f"{prefix}[{job}] finished: {power_text}, "
            f"{event.get('generations')} generations, "
            f"{float(event.get('cpu_time', 0.0)):.1f}s"
        )
    if kind == "job_failed":
        return f"{prefix}[{job}] FAILED: {event.get('error')}"
    if kind == "job_skipped":
        return f"{prefix}[{job}] already complete, skipped"
    if kind == "campaign_interrupted":
        return (
            f"{prefix}campaign {event.get('campaign')!r} interrupted "
            f"({event.get('completed_jobs')} jobs completed)"
        )
    if kind == "campaign_finished":
        return (
            f"{prefix}campaign {event.get('campaign')!r} finished: "
            f"{event.get('completed_jobs')} completed, "
            f"{event.get('failed_jobs')} failed"
        )
    payload = {
        k: v for k, v in event.items() if k not in ("ts", "seq")
    }
    return f"{prefix}{json.dumps(payload, sort_keys=True)}"


def format_status(status: CampaignStatus) -> str:
    """Multi-line progress report for ``repro-mm campaign --status``."""
    lines: List[str] = []
    name = status.campaign if status.campaign is not None else "?"
    if status.finished:
        state = "finished"
    elif status.interrupted:
        state = "interrupted"
    else:
        state = "running"
    lines.append(f"campaign {name!r}: {state}")
    lines.append(
        f"  progress: {status.done}/{status.total_jobs} jobs "
        f"({status.progress:.0%}) — {status.completed} completed, "
        f"{status.skipped} skipped, {status.failed} failed"
    )
    lines.append(f"  elapsed: {_duration(status.elapsed_seconds)}")
    if status.workers > 1:
        lines.append(
            f"  workers: {status.workers} (jobs are logged when they end)"
        )
    mean = status.mean_job_seconds
    if mean is not None:
        lines.append(f"  mean job wall time: {_duration(mean)}")
    if not status.finished:
        eta = status.eta_seconds
        # With zero completed jobs there is no timing sample at all —
        # say "n/a" explicitly rather than an extrapolated guess.
        if eta is None:
            lines.append("  eta: n/a (no completed jobs yet)")
        else:
            lines.append(f"  eta: {_duration(eta)}")
    for job_id in status.running:
        generation = status.last_generation.get(job_id)
        progress = (
            f" (generation {generation})" if generation is not None else ""
        )
        lines.append(f"  running: {job_id}{progress}")
    for job_id, error in status.failures.items():
        lines.append(f"  failed: {job_id}: {error}")
    return "\n".join(lines)


def format_pool_stats(summary: Dict[str, Any]) -> str:
    """Evaluation-pool lines of ``--status`` from a run summary.

    Every field renders ``n/a`` when absent or non-numeric: a run that
    fell back to serial evaluation mid-campaign, or a summary written
    by an older release, must degrade to ``n/a`` rather than crash the
    status command.  Workers and utilisation also render ``n/a`` when
    no pool served the campaign (``pool_workers`` 0).
    """
    perf = summary.get("perf") or {}

    def number(key: str) -> Optional[float]:
        value = perf.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return float(value)

    def count(key: str) -> str:
        value = number(key)
        return f"{value:.0f}" if value is not None else "n/a"

    def seconds(key: str) -> str:
        value = number(key)
        return f"{value:.1f}s" if value is not None else "n/a"

    workers = number("pool_workers")
    utilisation = number("pool_utilisation") if workers else None
    workers_text = f"{workers:.0f}" if workers else "n/a"
    utilisation_text = (
        f"{utilisation:.0%}" if utilisation is not None else "n/a"
    )
    lines = [
        (
            f"  pool: workers {workers_text}, "
            f"utilisation {utilisation_text}, "
            f"busy {seconds('pool_busy_seconds')}"
        ),
        (
            f"  pool work: {count('parallel_evaluations')} parallel "
            f"evaluations in {count('batches')} batches, "
            f"{count('pool_steals')} steals, "
            f"{count('pool_fallbacks')} fallbacks"
        ),
        (
            f"  speculation: {count('speculation_issued')} issued, "
            f"{count('speculation_hits')} hits, "
            f"{count('speculation_discards')} discarded"
        ),
        (
            f"  in-process: {count('inprocess_evaluations')} evaluations, "
            f"{seconds('inprocess_eval_seconds')}"
        ),
    ]
    return "\n".join(lines)
