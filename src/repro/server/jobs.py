"""Durable server-side job records and their state machine.

A :class:`ServerJob` is one tenant's submitted campaign: the campaign
spec payload, the tenant identity, a priority, and a small state
machine ``queued -> running -> done/failed/cancelled`` (plus the
recovery edge ``running -> queued`` a restarting server takes for jobs
whose worker died with it).  The :class:`JobStore` persists every
record through :func:`repro.durable.atomic_write_json`, the writer
campaign checkpoints use (temp file + fsync + ``os.replace``), so a
``kill -9`` of the server
leaves either the previous or the new record — never a torn file —
and a restart reloads the full job table from disk.

Layout of a server state directory::

    <state_dir>/
        server.sock         # transport socket (bound while serving)
        events.jsonl        # server-level event stream
        run_summary.json    # state + metrics snapshot (best effort)
        jobs/<job_id>.json  # one durable record per submitted job
        runs/<job_id>/      # the job's campaign run directory
"""

from __future__ import annotations

import enum
import json
import pathlib
import re
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.durable import atomic_write_json
from repro.errors import ServerError

PathLike = Union[str, pathlib.Path]

#: Schema version of persisted job records; bump on incompatible change.
JOB_VERSION = 1

JOBS_DIRNAME = "jobs"
RUNS_DIRNAME = "runs"

_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class JobState(enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

#: Legal state-machine edges.  ``running -> queued`` is the recovery
#: edge: a restarting server requeues jobs whose worker died with it.
_TRANSITIONS: Dict[JobState, frozenset] = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.QUEUED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


def validate_tenant(tenant: str) -> str:
    """Reject tenant names that cannot label files and metrics."""
    if not _TENANT_RE.match(tenant):
        raise ServerError(
            f"invalid tenant name {tenant!r} (want 1-64 chars of "
            f"[A-Za-z0-9_.-], starting alphanumeric)",
            kind="invalid",
        )
    return tenant


@dataclass
class ServerJob:
    """One submitted campaign and its durable lifecycle record."""

    job_id: str
    tenant: str
    priority: int
    #: The campaign spec payload (``CampaignSpec.to_dict()`` shape).
    spec: Dict[str, Any]
    state: JobState = JobState.QUEUED
    submitted_ts: float = 0.0
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    error: Optional[str] = None
    worker_pid: Optional[int] = None
    #: Times the job was requeued after a server restart or shutdown.
    resumes: int = 0
    cancel_requested: bool = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": JOB_VERSION,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "spec": dict(self.spec),
            "state": self.state.value,
            "submitted_ts": self.submitted_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "error": self.error,
            "worker_pid": self.worker_pid,
            "resumes": self.resumes,
            "cancel_requested": self.cancel_requested,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServerJob":
        values = dict(data)
        version = values.pop("version", JOB_VERSION)
        if version != JOB_VERSION:
            raise ServerError(
                f"unsupported job record version {version!r}",
                kind="invalid",
            )
        values["state"] = JobState(values["state"])
        try:
            return cls(**values)
        except TypeError as exc:
            raise ServerError(
                f"invalid job record: {exc}", kind="invalid"
            ) from exc

    def summary(self) -> Dict[str, Any]:
        """Compact row for ``jobs``/``status`` protocol responses."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state.value,
            "campaign": self.spec.get("name"),
            "submitted_ts": self.submitted_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "error": self.error,
            "resumes": self.resumes,
            "cancel_requested": self.cancel_requested,
        }


class JobStore:
    """The durable job table of one server state directory."""

    def __init__(
        self, state_dir: PathLike, clock: Any = time.time
    ) -> None:
        self.state_dir = pathlib.Path(state_dir)
        self.jobs_dir = self.state_dir / JOBS_DIRNAME
        self.runs_dir = self.state_dir / RUNS_DIRNAME
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._jobs: Dict[str, ServerJob] = {}
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                record = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ServerError(
                    f"corrupt job record at {path}: {exc}",
                    kind="invalid",
                ) from exc
            job = ServerJob.from_dict(record)
            self._jobs[job.job_id] = job
        self._next_seq = 1 + max(
            (
                int(match.group(1))
                for match in (
                    re.match(r"^j(\d+)-", job_id) for job_id in self._jobs
                )
                if match is not None
            ),
            default=-1,
        )

    # ------------------------------------------------------------------
    # Creation / persistence
    # ------------------------------------------------------------------

    def create(
        self, spec: Dict[str, Any], tenant: str, priority: int = 0
    ) -> ServerJob:
        """Allocate, persist and return a new queued job."""
        validate_tenant(tenant)
        job_id = f"j{self._next_seq:06d}-{tenant}"
        self._next_seq += 1
        job = ServerJob(
            job_id=job_id,
            tenant=tenant,
            priority=int(priority),
            spec=dict(spec),
            submitted_ts=round(float(self._clock()), 6),
        )
        self._jobs[job_id] = job
        self.save(job)
        return job

    def save(self, job: ServerJob) -> None:
        atomic_write_json(
            self.jobs_dir / f"{job.job_id}.json", job.to_dict()
        )

    def transition(self, job: ServerJob, state: JobState) -> ServerJob:
        """Move ``job`` along a legal state-machine edge and persist it."""
        if state not in _TRANSITIONS[job.state]:
            raise ServerError(
                f"job {job.job_id} cannot go {job.state.value} -> "
                f"{state.value}",
                kind="conflict",
            )
        job.state = state
        now = round(float(self._clock()), 6)
        if state is JobState.RUNNING:
            job.started_ts = now
        elif state in TERMINAL_STATES:
            job.finished_ts = now
        elif state is JobState.QUEUED:  # recovery requeue
            job.started_ts = None
            job.worker_pid = None
            job.resumes += 1
        self.save(job)
        return job

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> ServerJob:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServerError(
                f"no job {job_id!r}", kind="not_found"
            ) from None

    def jobs(
        self,
        tenant: Optional[str] = None,
        states: Optional[Iterable[JobState]] = None,
    ) -> List[ServerJob]:
        """All known jobs in submission (= job id) order."""
        wanted = frozenset(states) if states is not None else None
        return [
            job
            for job_id, job in sorted(self._jobs.items())
            if (tenant is None or job.tenant == tenant)
            and (wanted is None or job.state in wanted)
        ]

    def counts(self) -> Dict[str, int]:
        """Job totals by state value (all states present, 0 included)."""
        totals = {state.value: 0 for state in JobState}
        for job in self._jobs.values():
            totals[job.state.value] += 1
        return totals

    def run_dir(self, job_id: str) -> pathlib.Path:
        """The campaign run directory of one job (not created here)."""
        return self.runs_dir / job_id
