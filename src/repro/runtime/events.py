"""The structured JSONL run-event stream.

Every campaign writes an append-only ``events.jsonl`` into its run
directory: one JSON object per line, each carrying at least an
``event`` kind, a ``seq`` number and a wall-clock ``ts``.  The stream
is the campaign's authoritative record — `repro.analysis.reporting`
can re-aggregate the paper's Table 1/2/3 layouts from it without
re-running anything, and a monitoring process can tail it live.

Event kinds emitted by the runner:

``campaign_started``
    name, total job count, pending job count (on resume).
``job_started``
    job identity (instance/dvs/policy/seed) and the generation the job
    resumes from (0 = fresh start).
``generation``
    per-generation progress: generation index, best fitness so far,
    cumulative evaluations.
``checkpointed``
    a GA snapshot was persisted for the job.
``job_finished``
    final metrics of one job: power, cpu_time, feasibility,
    generations, evaluations, plus the ``SynthesisResult.perf``
    counters.
``job_failed``
    the job raised an error; the campaign goes on with the next job.
``campaign_finished``
    completed/failed totals.

Writes are flushed line-by-line so the log survives a ``kill -9`` of
the campaign process (the OS page cache holds flushed lines even when
the process dies).
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.errors import CampaignError

PathLike = Union[str, pathlib.Path]

#: File name of the event stream inside a campaign run directory.
EVENTS_FILENAME = "events.jsonl"


class EventLog:
    """Append-only JSONL event writer with monotonic sequence numbers."""

    def __init__(
        self,
        path: PathLike,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = pathlib.Path(path)
        self._clock = clock
        self._seq = self._next_seq()
        self._trim_torn_tail()
        self._handle = open(self.path, "a", encoding="utf-8")

    def _trim_torn_tail(self) -> None:
        """Drop a partially written final line before appending.

        Without the trim, the next emit would glue its record onto the
        torn tail of a killed writer, turning a harmless skipped tail
        into real mid-file corruption once further events follow.  The
        torn tail carries no complete event by construction, so
        truncating it loses nothing.
        """
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return
        if size == 0:
            return
        with open(self.path, "rb+") as handle:
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            # Walk back in chunks to the last newline (file offset of
            # the torn line's start); no newline at all means the whole
            # file is the torn line.
            end = size
            chunk = 8192
            while end > 0:
                take = min(chunk, end)
                handle.seek(end - take)
                data = handle.read(take)
                newline = data.rfind(b"\n")
                if newline != -1:
                    handle.truncate(end - take + newline + 1)
                    return
                end -= take
            handle.truncate(0)

    def _next_seq(self) -> int:
        """Continue numbering after the last event already on disk.

        Reads only the *tail* of the stream — seeking backwards in
        growing chunks for the last complete line — so reopening the
        log of a long campaign (every resume does) stays O(1) instead
        of JSON-parsing the entire file.  A torn final line (crash
        mid-write) is skipped, like :func:`iter_events` does.
        """
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return 0
        chunk = 8192
        buffer = b""
        position = size
        with open(self.path, "rb") as handle:
            while position > 0:
                take = min(chunk, position)
                position -= take
                handle.seek(position)
                buffer = handle.read(take) + buffer
                seq = self._last_seq_in(buffer, complete=position == 0)
                if seq is not None:
                    return seq + 1
                chunk *= 2
        return 0

    @staticmethod
    def _last_seq_in(buffer: bytes, complete: bool) -> Optional[int]:
        """Sequence number of the last parseable event in ``buffer``.

        ``complete`` says the buffer starts at the beginning of the
        file; otherwise its first line may be cut mid-way by the chunk
        boundary and cannot be trusted.  Returns ``None`` when no
        complete event line is present (caller reads further back).
        """
        lines = buffer.split(b"\n")
        candidates = lines if complete else lines[1:]
        for raw in reversed(candidates):
            stripped = raw.strip()
            if not stripped:
                continue
            try:
                event = json.loads(stripped.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                # The torn tail of a killed writer; look further back.
                continue
            if isinstance(event, dict):
                return int(event.get("seq", -1))
        return None

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the record as written."""
        record: Dict[str, Any] = {
            "seq": self._seq,
            "ts": round(self._clock(), 6),
            "event": event,
        }
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=False) + "\n")
        self._handle.flush()
        self._seq += 1
        return record

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def iter_events(path: PathLike) -> Iterator[Dict[str, Any]]:
    """Yield events from a JSONL stream, tolerating a torn final line.

    A crash can leave a partially written last line; that tail is
    skipped (it carries no completed event by construction).  Blank or
    whitespace-only lines — including any that follow the torn tail,
    e.g. a trailing newline flushed by a dying writer — never count as
    events.  A torn line followed by a further *non-empty* line means
    real corruption and raises.
    """
    path = pathlib.Path(path)
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise CampaignError(f"no event stream at {path}") from None
    with handle:
        pending_error: Optional[str] = None
        for line_number, line in enumerate(handle, 1):
            stripped = line.strip()
            if not stripped:
                continue
            if pending_error is not None:
                raise CampaignError(pending_error)
            try:
                yield json.loads(stripped)
            except json.JSONDecodeError:
                # Only legal as the last non-empty line (torn write).
                pending_error = (
                    f"corrupt event at {path}:{line_number}: "
                    f"{stripped[:80]!r}"
                )


def read_events(path: PathLike) -> List[Dict[str, Any]]:
    """All events of a stream, in order."""
    return list(iter_events(path))


def events_path(run_dir: PathLike) -> pathlib.Path:
    return pathlib.Path(run_dir) / EVENTS_FILENAME
