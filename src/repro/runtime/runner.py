"""The resilient campaign runner.

:class:`CampaignRunner` executes a :class:`~repro.runtime.spec.CampaignSpec`
as an ordered queue of synthesis jobs on top of the evaluation engine:

* **Durable progress** — every job checkpoints its GA state every
  ``checkpoint_every`` generations (atomic file writes), and finished
  jobs persist a result record.  Re-running the same run directory
  (``repro-mm campaign --resume <dir>``) skips completed jobs and
  continues interrupted ones from their last snapshot — evaluation is
  a pure function of the genome, and the snapshot carries the RNG
  state, so the replay takes the exact path the uninterrupted run
  would have taken: power, history, best genes, generations and
  ``mode_powers`` come out bit-identical.  ``evaluations`` counts the
  evaluations the job actually ran; the snapshot carries no genome
  cache, so a resumed job re-evaluates genomes the lost cache held.
* **Structured observability** — every state change is appended to the
  run directory's ``events.jsonl`` (see :mod:`repro.runtime.events`);
  the final ``job_finished`` events carry enough (power, CPU time,
  feasibility, perf counters) for
  :func:`repro.analysis.reporting.results_from_events` to rebuild the
  paper's comparison tables without re-running anything.  On exit
  (finished *or* interrupted) the runner also exports a machine-
  readable ``run_summary.json`` (see :mod:`repro.obs.summary`) and
  campaign-level counters land in the process-global metrics registry
  (:mod:`repro.obs.metrics`); the summary dumps the counters the run
  added.
* **Campaign workers** — pending jobs run in forked worker processes,
  one per usable CPU (:func:`usable_cpus` divided by the config's
  ``jobs``, at most one per unit of work).  A unit is the jobs of one
  instance, DVS method and seed, which differ only in probability
  policy: they start from one initial population and share most
  mode-cache entries, so one worker runs them on one ``Problem``.
  Results do not depend on the worker count.  The parent stays the only
  writer of ``events.jsonl``, the result records and
  ``run_summary.json``; each worker writes its own jobs' checkpoints
  and hands back, per job, the job's events, which the parent logs as
  one contiguous block with the worker's timestamps.  With one worker
  (one usable CPU, one unit, or no ``fork``) the jobs run in-process
  with live events.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import multiprocessing
import os
import pathlib
import pickle
import signal
import tempfile
import threading
import time
import traceback
from dataclasses import MISSING, dataclass, field, fields
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.durable import is_version
from repro.engine.backend import _init_forked_worker
from repro.errors import CampaignError, ReproError
from repro.obs.metrics import REGISTRY, MetricsSnapshot
from repro.obs.summary import build_run_summary, write_run_summary
from repro.problem import Problem
from repro.runtime import checkpoint as ckpt
from repro.runtime.events import (
    EVENTS_VERSION,
    EventLog,
    check_segment_version,
    events_path,
    iter_events,
    read_events,
)
from repro.runtime.spec import CampaignSpec, JobSpec
from repro.synthesis.cosynthesis import MultiModeSynthesizer
from repro.synthesis.state import GAState
from repro.validation import ValidationError, validate_implementation

PathLike = Union[str, pathlib.Path]

#: Result-record schema version; bump on incompatible change.
RESULT_VERSION = 1

#: Seconds a stopped campaign worker gets to exit after SIGTERM before
#: it is sent SIGKILL.
STOP_GRACE_SECONDS = 5.0


def usable_cpus() -> int:
    """CPUs this process may run on.

    The process's affinity set where the platform has one, so
    ``taskset`` caps the campaign's worker count; else the machine's
    CPU count.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Convert SIGTERM into ``KeyboardInterrupt`` for the enclosed block.

    A supervised campaign process (a systemd unit, a batch scheduler,
    a container being stopped) is told to go away with SIGTERM, not
    Ctrl-C.  Routing it through the same interrupt path gives SIGTERM
    the identical graceful shutdown: the latest checkpoint is already
    durable, the ``campaign_interrupted`` event is emitted and the
    best-effort ``run_summary.json`` export fires.
    Signal handlers can only be installed from the main thread; from
    any other thread the campaign runs with the process default
    behaviour, unchanged.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def raise_interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, raise_interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@dataclass
class JobResult:
    """The persisted outcome of one campaign job."""

    job_id: str
    instance: str
    modes: int
    dvs: str
    use_probabilities: bool
    seed: int
    power: float
    cpu_time: float
    feasible: bool
    generations: int
    evaluations: int
    history: List[float] = field(default_factory=list)
    best_genes: List[str] = field(default_factory=list)
    resumed_from: int = 0
    perf: Dict[str, Any] = field(default_factory=dict)
    #: Per-mode power breakdown ``{mode: {"dynamic": W, "static": W}}``
    #: of the winning design — Equation (1) is linear in Ψ, so it
    #: re-scores the design exactly under any Ψ.
    mode_powers: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": RESULT_VERSION,
            "job_id": self.job_id,
            "instance": self.instance,
            "modes": self.modes,
            "dvs": self.dvs,
            "use_probabilities": self.use_probabilities,
            "seed": self.seed,
            "power": self.power,
            "cpu_time": self.cpu_time,
            "feasible": self.feasible,
            "generations": self.generations,
            "evaluations": self.evaluations,
            "history": list(self.history),
            "best_genes": list(self.best_genes),
            "resumed_from": self.resumed_from,
            "perf": dict(self.perf),
            "mode_powers": {
                mode: dict(entry)
                for mode, entry in self.mode_powers.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        """Load a stored record; a damaged one is a :class:`CampaignError`."""
        if not isinstance(data, dict):
            raise CampaignError("job result is not a JSON object")
        version = data.get("version", RESULT_VERSION)
        if not is_version(version, RESULT_VERSION):
            raise CampaignError(
                f"unsupported job result version {version!r}"
            )
        # Keys that name no field, such as the retry count of earlier
        # releases, are dropped; results written before ``mode_powers``
        # existed load with an empty breakdown (additive schema change).
        names = {item.name for item in fields(cls)}
        values = {key: value for key, value in data.items() if key in names}
        values.setdefault("mode_powers", {})
        missing = [
            item.name
            for item in fields(cls)
            if item.name not in values
            and item.default is MISSING
            and item.default_factory is MISSING
        ]
        if missing:
            raise CampaignError(
                f"job result misses the fields {', '.join(missing)}"
            )
        return cls(**values)


@dataclass
class CampaignResult:
    """Everything a finished (or partially failed) campaign produced."""

    spec: CampaignSpec
    run_dir: pathlib.Path
    results: Dict[str, JobResult] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def job_results(self) -> List[JobResult]:
        """Results in queue order (completed jobs only)."""
        return list(self.results.values())


class CampaignRunner:
    """Executes one campaign spec against one run directory.

    Parameters
    ----------
    spec / run_dir:
        The campaign and its durable state directory.  An existing run
        directory must carry the *same* spec; partially executed
        campaigns continue where they stopped.
    problem_loader:
        ``name -> Problem`` resolver; defaults to the benchmark
        registry.  Experiment drivers inject ad-hoc problems this way.
    on_event:
        Optional callback receiving every event record right after it
        is appended to the JSONL stream (live progress display).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        run_dir: PathLike,
        problem_loader: Optional[Callable[[str], Problem]] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self.spec = spec
        self.run_dir = ckpt.prepare_run_dir(run_dir)
        if problem_loader is None:
            from repro.benchgen import registry

            problem_loader = registry.get
        self._problem_loader = problem_loader
        self._on_event = on_event
        self._problems: Dict[str, Problem] = {}
        self._persist_spec()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _persist_spec(self) -> None:
        path = ckpt.spec_path(self.run_dir)
        if path.exists():
            existing = CampaignSpec.load(path)
            if existing.to_dict() != self.spec.to_dict():
                raise CampaignError(
                    f"run directory {self.run_dir} already holds a "
                    f"different campaign spec; use a fresh directory or "
                    f"resume with the stored spec"
                )
        else:
            self.spec.save(path)

    def _problem(self, instance: str) -> Problem:
        if instance not in self._problems:
            try:
                self._problems[instance] = self._problem_loader(instance)
            except KeyError as exc:
                raise CampaignError(
                    f"campaign references unknown instance "
                    f"{instance!r}: {exc.args[0] if exc.args else exc}"
                ) from exc
        return self._problems[instance]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute (or continue) the campaign; returns all results.

        Individual job failures do not abort the campaign — they are
        recorded, reported in events, and surfaced on
        :attr:`CampaignResult.failures`.  ``KeyboardInterrupt`` *does*
        abort, after the interrupted job's latest checkpoint is
        already on disk; resuming later continues the same search.
        SIGTERM (supervisors, batch schedulers, container stops) takes
        the same graceful path when the campaign runs on the main
        thread.  A campaign worker that exits without reporting its
        job (killed, out of memory) stops the campaign the same way and
        raises :class:`CampaignError`; any other exception a job raises
        is re-raised here, as the in-process loop does.  Workers are
        forked here, not when the runner is built, and every one is
        reaped before this returns or raises.

        A stored result whose ``job_finished`` event is missing from
        the stream — the process died between writing the result and
        logging it — is logged ``job_finished`` now, from the stored
        record, in place of ``job_skipped``; so every completed job
        appears finished in the stream exactly once.
        """
        queue = self.spec.jobs()
        outcome = CampaignResult(spec=self.spec, run_dir=self.run_dir)
        # The summary's counters are this run's: an earlier campaign in
        # the same process has recorded into the same registry.
        metrics_base = REGISTRY.snapshot()
        with _sigterm_as_interrupt(), EventLog(
            events_path(self.run_dir)
        ) as events:
            stored = {job.job_id: self._stored_result(job) for job in queue}
            pending = [job for job in queue if stored[job.job_id] is None]
            # Only a run directory with stored results can have lost a
            # job_finished event; a fresh campaign never reads its stream.
            logged_finished = (
                _logged_finished(events.path)
                if len(pending) < len(queue)
                else set()
            )
            units = [
                list(unit)
                for _, unit in itertools.groupby(
                    pending, key=lambda job: (job.instance, job.dvs, job.seed)
                )
            ]
            workers = self._worker_count(len(units))
            self._emit(
                events,
                "campaign_started",
                campaign=self.spec.name,
                version=EVENTS_VERSION,
                workers=workers,
                total_jobs=len(queue),
                pending_jobs=len(pending),
            )
            try:
                for job in queue:
                    done = stored[job.job_id]
                    if done is not None:
                        outcome.results[job.job_id] = done
                        REGISTRY.inc("campaign_jobs_skipped_total")
                        if job.job_id in logged_finished:
                            self._emit(
                                events,
                                "job_skipped",
                                job_id=job.job_id,
                                reason="already complete",
                            )
                        else:
                            config = job.configure(self.spec.config)
                            self._emit(
                                events,
                                "job_finished",
                                **_finished_fields(
                                    done, config.max_generations
                                ),
                            )
                    elif workers == 1:
                        try:
                            result = self._run_job(job, events)
                        except (ReproError, ValidationError) as exc:
                            self._fail(outcome, events, job, str(exc))
                            continue
                        outcome.results[job.job_id] = result
                if workers > 1:
                    self._run_in_workers(units, workers, events, outcome)
            except (KeyboardInterrupt, _WorkerLost):
                self._emit(
                    events,
                    "campaign_interrupted",
                    campaign=self.spec.name,
                    completed_jobs=len(outcome.results),
                )
                self._export_summary(outcome, metrics_base, interrupted=True)
                raise
            self._emit(
                events,
                "campaign_finished",
                campaign=self.spec.name,
                completed_jobs=len(outcome.results),
                failed_jobs=len(outcome.failures),
            )
            self._export_summary(outcome, metrics_base, interrupted=False)
        return outcome

    def _worker_count(self, units: int) -> int:
        """Usable CPUs per job's ``jobs``, at most one per unit of work."""
        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
        return max(1, min(usable_cpus() // self.spec.config.jobs, units))

    def _export_summary(
        self,
        outcome: CampaignResult,
        metrics_base: MetricsSnapshot,
        interrupted: bool,
    ) -> None:
        """Write ``run_summary.json`` next to the event stream.

        Its counters are those added since ``metrics_base``, the
        registry snapshot taken when the run started.

        Results and failures are put in queue order first: workers
        report them in completion order.  Best-effort on the interrupt
        path — a summary problem must not mask the ``KeyboardInterrupt``
        already propagating.
        """
        order = [job.job_id for job in self.spec.jobs()]
        for table in (outcome.results, outcome.failures):
            ordered = {key: table[key] for key in order if key in table}
            table.clear()
            table.update(ordered)
        try:
            events = read_events(events_path(self.run_dir))
            summary = build_run_summary(
                campaign=self.spec.name,
                total_jobs=len(order),
                job_results={
                    job_id: result.to_dict()
                    for job_id, result in outcome.results.items()
                },
                failures=dict(outcome.failures),
                events=events,
                metrics=REGISTRY.to_dict(since=metrics_base),
                interrupted=interrupted,
            )
            write_run_summary(self.run_dir, summary)
        except Exception:
            if not interrupted:
                raise

    def _stored_result(self, job: JobSpec) -> Optional[JobResult]:
        """The job's stored result, or ``None`` if it has none yet.

        A stored record that does not load — corrupt JSON, a missing
        field — is a :class:`CampaignError` naming the job and the file,
        raised before any job runs.
        """
        record = ckpt.load_result(self.run_dir, job.job_id)
        if record is None:
            return None
        try:
            return JobResult.from_dict(record)
        except CampaignError as exc:
            raise CampaignError(
                f"stored result of job {job.job_id!r} at "
                f"{ckpt.result_path(self.run_dir, job.job_id)}: {exc}"
            ) from None

    def _emit(
        self,
        events: EventLog,
        kind: str,
        at: Optional[float] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        record = events.emit(kind, at=at, **fields)
        if self._on_event is not None:
            self._on_event(record)
        return record

    # ------------------------------------------------------------------
    # One job
    # ------------------------------------------------------------------

    def _run_job(self, job: JobSpec, events: EventLog) -> JobResult:
        """Run one job in-process, with live events."""
        result = self._synthesize(job, functools.partial(self._emit, events))
        self._finish(events, job, result)
        return result

    def _synthesize(
        self, job: JobSpec, emit: Callable[..., Any]
    ) -> JobResult:
        """The job body: GA from the latest checkpoint, then validation.

        ``emit(kind, **fields)`` receives the job's ``job_started``,
        ``generation`` and ``checkpointed`` events.  The job's own
        checkpoints are written here, by whichever process runs it.
        """
        problem = self._problem(job.instance)
        config = job.configure(self.spec.config)
        state = ckpt.load_checkpoint(self.run_dir, job.job_id, config)
        resumed_from = state.generation if state is not None else 0
        emit(
            "job_started",
            job_id=job.job_id,
            instance=job.instance,
            dvs=job.dvs.value,
            use_probabilities=job.use_probabilities,
            seed=job.seed,
            resumed_from=resumed_from,
        )

        def on_generation(snapshot: GAState) -> None:
            emit(
                "generation",
                job_id=job.job_id,
                generation=snapshot.generation,
                best_fitness=(
                    snapshot.best_fitness
                    if snapshot.best_genes is not None
                    else None
                ),
                evaluations=snapshot.evaluations,
            )
            # The final generation always checkpoints, whatever the
            # cadence: a crash between the last periodic snapshot and
            # job completion must not lose finished work.
            if (
                snapshot.generation % self.spec.checkpoint_every == 0
                or snapshot.generation >= config.max_generations
            ):
                ckpt.write_checkpoint(
                    self.run_dir, job.job_id, snapshot, config
                )
                emit(
                    "checkpointed",
                    job_id=job.job_id,
                    generation=snapshot.generation,
                )

        synthesis = MultiModeSynthesizer(problem, config).run(
            resume=state, on_generation=on_generation
        )
        validate_implementation(synthesis.best)
        return JobResult(
            job_id=job.job_id,
            instance=job.instance,
            modes=len(problem.omsm),
            dvs=job.dvs.value,
            use_probabilities=job.use_probabilities,
            seed=job.seed,
            power=synthesis.average_power,
            cpu_time=synthesis.cpu_time,
            feasible=synthesis.is_feasible,
            generations=synthesis.generations,
            evaluations=synthesis.evaluations,
            history=list(synthesis.history),
            best_genes=list(synthesis.best.mapping.genes),
            resumed_from=resumed_from,
            perf=(
                synthesis.perf.to_dict()
                if synthesis.perf is not None
                else {}
            ),
            mode_powers={
                mode: dict(entry)
                for mode, entry in synthesis.mode_powers.items()
            },
        )

    def _finish(
        self, events: EventLog, job: JobSpec, result: JobResult
    ) -> None:
        """Persist a finished job, then log it: result, checkpoint, event.

        In this order, a crash at any point leaves either the checkpoint
        to resume from or the result, whose missing ``job_finished`` the
        next run logs.
        """
        ckpt.write_result(self.run_dir, job.job_id, result.to_dict())
        ckpt.clear_checkpoint(self.run_dir, job.job_id)
        REGISTRY.inc("campaign_jobs_finished_total")
        config = job.configure(self.spec.config)
        self._emit(
            events,
            "job_finished",
            **_finished_fields(result, config.max_generations),
        )

    def _fail(
        self,
        outcome: CampaignResult,
        events: EventLog,
        job: JobSpec,
        error: str,
    ) -> None:
        outcome.failures[job.job_id] = error
        REGISTRY.inc("campaign_jobs_failed_total")
        self._emit(events, "job_failed", job_id=job.job_id, error=error)

    # ------------------------------------------------------------------
    # Campaign workers
    # ------------------------------------------------------------------

    def _run_in_workers(
        self,
        units: List[List[JobSpec]],
        count: int,
        events: EventLog,
        outcome: CampaignResult,
    ) -> None:
        """Run ``units`` on ``count`` forked workers; log each job's block.

        Workers pull units in queue order as they become free.  Per job
        message the parent logs the job's events, then persists and logs
        its outcome; a job that raised something other than a job
        failure stops the campaign and is re-raised.
        """
        context = multiprocessing.get_context("fork")
        parent = os.getpid()
        workers: List[_Worker] = []
        try:
            for _ in range(count):
                mine, theirs = context.Pipe()
                # The worker closes every parent end it inherits, so a
                # dead parent reads as end-of-file in each worker.
                ends = [worker.conn for worker in workers] + [mine]
                process = context.Process(
                    target=self._worker_main,
                    args=(theirs, ends, parent, units),
                    name=f"campaign-worker-{len(workers)}",
                )
                process.start()
                theirs.close()
                workers.append(_Worker(process, mine))
            queue = list(reversed(range(len(units))))
            live = list(workers)
            while live:
                ready = connection.wait(
                    [worker.conn for worker in live]
                    + [worker.process.sentinel for worker in live]
                )
                for worker in list(live):
                    if worker.process.sentinel in ready:
                        # It exited: take what it sent before it did.
                        while self._receive(
                            worker, queue, units, events, outcome
                        ):
                            pass
                        worker.process.join()
                        live.remove(worker)
                        if worker.process.exitcode != 0 or not worker.done:
                            raise _WorkerLost(self._lost_message(worker))
                    elif worker.conn in ready:
                        self._receive(worker, queue, units, events, outcome)
        finally:
            _stop(workers)

    def _receive(
        self,
        worker: "_Worker",
        queue: List[int],
        units: List[List[JobSpec]],
        events: EventLog,
        outcome: CampaignResult,
    ) -> bool:
        """Act on one message from ``worker``; ``False`` if it has none."""
        try:
            if not worker.conn.poll():
                return False
            message = worker.conn.recv()
        except EOFError:
            return False
        if message is None:  # idle: hand it the next unit, or stop it
            index = queue.pop() if queue else None
            worker.unit = units[index] if index is not None else None
            worker.position = 0
            worker.done = index is None
            with contextlib.suppress(OSError):  # it died: see its sentinel
                worker.conn.send(index)
            return True
        log, status, value, delta = message
        job = worker.unit[worker.position]
        worker.position += 1
        for kind, ts, fields in log:
            self._emit(events, kind, at=ts, **fields)
        if status == "raised":
            raise _unpickled(*value, job)
        REGISTRY.merge(delta)
        if status == "failed":
            self._fail(outcome, events, job, value)
        else:
            self._finish(events, job, value)
            outcome.results[job.job_id] = value
        return True

    def _lost_message(self, worker: "_Worker") -> str:
        unit = worker.unit or []
        job = (
            f"job {unit[worker.position].job_id!r}"
            if worker.position < len(unit)
            else "no job"
        )
        return (
            f"campaign worker {worker.process.name} running {job} exited "
            f"with status {worker.process.exitcode} before reporting it; "
            f"continue with `repro-mm campaign --resume {self.run_dir}`"
        )

    def _worker_main(
        self,
        conn: connection.Connection,
        parent_ends: List[connection.Connection],
        parent: int,
        units: List[List[JobSpec]],
    ) -> None:
        """A campaign worker: run the units the parent hands out.

        It asks for a unit only when idle (a ``None`` message), so the
        parent's sends never wait on a full pipe.  Per job it sends one
        message ``(events, status, value, delta)``: ``("finished",
        result, delta)``, ``("failed", error, delta)`` or ``("raised",
        (pickled exception, traceback), None)``, where ``delta`` is the
        job's metrics registry delta: its counters and phase time.  A
        lost parent ends it: end-of-file or a broken pipe on the
        connection, or a parent process id that changed at a generation
        boundary.
        """
        _init_forked_worker()
        for end in parent_ends:
            end.close()
        try:
            conn.send(None)
            while True:
                index = conn.recv()
                if index is None:
                    return
                for job in units[index]:
                    message = self._worker_job(job, parent)
                    conn.send(message)
                    if message[1] == "raised":
                        return
                conn.send(None)
        except (EOFError, OSError):
            return

    def _worker_job(self, job: JobSpec, parent: int) -> Tuple[Any, ...]:
        """Run one job in a worker; returns the message for the parent."""
        log: List[Tuple[str, float, Dict[str, Any]]] = []

        def collect(kind: str, **fields: Any) -> None:
            # A generation boundary comes before its checkpoint: an
            # orphaned worker stops here instead of writing on.
            if kind == "generation" and os.getppid() != parent:
                os._exit(1)
            log.append((kind, time.time(), fields))

        base = REGISTRY.snapshot()
        try:
            result = self._synthesize(job, collect)
        except (ReproError, ValidationError) as exc:
            return (log, "failed", str(exc), REGISTRY.delta_since(base))
        except BaseException as exc:  # reported to the parent, which raises it
            try:
                pickled: Optional[bytes] = pickle.dumps(exc)
            except Exception:
                pickled = None
            return (log, "raised", (pickled, traceback.format_exc()), None)
        return (log, "finished", result, REGISTRY.delta_since(base))


@dataclass
class _Worker:
    """The parent's view of one campaign worker."""

    process: multiprocessing.process.BaseProcess
    conn: connection.Connection
    #: The unit it runs (``None`` while idle) and its next job there.
    unit: Optional[List[JobSpec]] = None
    position: int = 0
    #: Told to exit: the queue was empty when it asked.
    done: bool = False


class _WorkerLost(CampaignError):
    """A campaign worker exited without reporting its job."""


def _stop(workers: List[_Worker]) -> None:
    """SIGTERM every live worker, then SIGKILL those that outlast the grace.

    SIGINT and SIGTERM are held until every worker is reaped: a second
    Ctrl-C, or ``timeout``, which signals the process and then its
    group, must not cut the reaping short.  A held signal raises its
    ``KeyboardInterrupt`` once the workers are gone.
    """
    held = signal.pthread_sigmask(
        signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM}
    )
    try:
        for worker in workers:
            if worker.process.is_alive():
                worker.process.terminate()
        deadline = time.monotonic() + STOP_GRACE_SECONDS
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in workers:
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.conn.close()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _unpickled(
    pickled: Optional[bytes], text: str, job: JobSpec
) -> BaseException:
    """The exception a worker's job raised, or a RuntimeError with its text."""
    if pickled is not None:
        try:
            exc = pickle.loads(pickled)
        except Exception:
            pass
        else:
            if isinstance(exc, BaseException):
                return exc
    return RuntimeError(
        f"campaign job {job.job_id} raised in its worker:\n{text}"
    )


def _logged_finished(path: pathlib.Path) -> Set[Any]:
    """Ids of the jobs a stream logs ``job_finished``; checks each segment."""
    finished: Set[Any] = set()
    for event in iter_events(path):
        kind = event.get("event")
        if kind == "campaign_started":
            check_segment_version(event)
        elif kind == "job_finished":
            finished.add(event.get("job_id"))
    return finished


def _finished_fields(
    result: JobResult, max_generations: int
) -> Dict[str, Any]:
    """The fields of a job's ``job_finished`` event.

    The result record without its version, history, best genes and
    resume point, plus whether the GA converged before its generation
    limit.
    """
    record = result.to_dict()
    for key in ("version", "history", "best_genes", "resumed_from"):
        del record[key]
    record["converged"] = result.generations < max_generations
    return record


# ----------------------------------------------------------------------
# Convenience entry points
# ----------------------------------------------------------------------


def run_campaign(
    spec: CampaignSpec,
    run_dir: Optional[PathLike] = None,
    problem_loader: Optional[Callable[[str], Problem]] = None,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> CampaignResult:
    """Execute ``spec`` against ``run_dir`` (creating it as needed).

    Without ``run_dir`` the campaign runs in a throw-away temporary
    directory, removed before this returns.
    """
    if run_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
            return run_campaign(spec, tmp, problem_loader, on_event)
    return CampaignRunner(
        spec, run_dir, problem_loader=problem_loader, on_event=on_event
    ).run()


def resume_campaign(
    run_dir: PathLike,
    problem_loader: Optional[Callable[[str], Problem]] = None,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> CampaignResult:
    """Continue the campaign stored in ``run_dir``.

    Loads the directory's ``spec.json`` and re-runs the queue:
    completed jobs are skipped, checkpointed jobs resume from their
    latest snapshot (see :class:`CampaignRunner` for what a resume
    keeps bit-identical).
    """
    spec = CampaignSpec.load(ckpt.spec_path(run_dir))
    return run_campaign(spec, run_dir, problem_loader, on_event)
