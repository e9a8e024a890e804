"""The resilient campaign runner.

:class:`CampaignRunner` executes a :class:`~repro.runtime.spec.CampaignSpec`
as an ordered queue of synthesis jobs on top of the evaluation engine:

* **Durable progress** — every job checkpoints its GA state every
  ``checkpoint_every`` generations (atomic file writes), and finished
  jobs persist a result record.  Re-running the same run directory
  (``repro-mm campaign --resume <dir>``) skips completed jobs and
  continues interrupted ones *bit-identically* from their last
  snapshot — evaluation is a pure function of the genome, and the
  snapshot carries the RNG state, so the replay takes the exact path
  the uninterrupted run would have taken.
* **Structured observability** — every state change is appended to the
  run directory's ``events.jsonl`` (see :mod:`repro.runtime.events`);
  the final ``job_finished`` events carry enough (power, CPU time,
  feasibility, perf counters) for
  :func:`repro.analysis.reporting.results_from_events` to rebuild the
  paper's comparison tables without re-running anything.  On exit
  (finished *or* interrupted) the runner also exports a machine-
  readable ``run_summary.json`` (see :mod:`repro.obs.summary`) and
  campaign-level counters/gauges land in the process-global metrics
  registry (:mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import contextlib
import pathlib
import signal
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Union

from repro.durable import is_version
from repro.errors import CampaignError, ReproError
from repro.obs.metrics import REGISTRY
from repro.obs.summary import build_run_summary, write_run_summary
from repro.problem import Problem
from repro.runtime import checkpoint as ckpt
from repro.runtime.events import EventLog, events_path, iter_events, read_events
from repro.runtime.spec import CampaignSpec, JobSpec
from repro.synthesis.cosynthesis import MultiModeSynthesizer
from repro.synthesis.state import GAState
from repro.validation import ValidationError, validate_implementation

PathLike = Union[str, pathlib.Path]

#: Result-record schema version; bump on incompatible change.
RESULT_VERSION = 1


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
        already on disk; resuming later continues bit-identically.
        SIGTERM (supervisors, batch schedulers, container stops) takes
        the same graceful path when the campaign runs on the main
        thread.

        A stored result whose ``job_finished`` event is missing from
        the stream — the process died between writing the result and
        logging it — is logged ``job_finished`` now, from the stored
        record, in place of ``job_skipped``; so every completed job
        appears finished in the stream exactly once.
        """
        queue = self.spec.jobs()
        outcome = CampaignResult(spec=self.spec, run_dir=self.run_dir)
        with _sigterm_as_interrupt(), EventLog(
            events_path(self.run_dir)
        ) as events:
            stored = {
                job.job_id: ckpt.load_result(self.run_dir, job.job_id)
                for job in queue
            }
            pending = [job for job in queue if stored[job.job_id] is None]
            # Only a run directory with stored results can have lost a
            # job_finished event; a fresh campaign never reads its stream.
            logged_finished = (
                {
                    event.get("job_id")
                    for event in iter_events(events.path)
                    if event.get("event") == "job_finished"
                }
                if len(pending) < len(queue)
                else set()
            )
            remaining = len(pending)
            REGISTRY.set_gauge("campaign_jobs_pending", remaining)
            self._emit(
                events,
                "campaign_started",
                campaign=self.spec.name,
                total_jobs=len(queue),
                pending_jobs=len(pending),
            )
            try:
                for job in queue:
                    record = stored[job.job_id]
                    if record is not None:
                        result = JobResult.from_dict(record)
                        outcome.results[job.job_id] = result
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
                                    result, config.max_generations
                                ),
                            )
                        continue
                    try:
                        result = self._run_job(job, events)
                    except (ReproError, ValidationError) as exc:
                        outcome.failures[job.job_id] = str(exc)
                        REGISTRY.inc("campaign_jobs_failed_total")
                        self._emit(
                            events,
                            "job_failed",
                            job_id=job.job_id,
                            error=str(exc),
                        )
                        continue
                    finally:
                        remaining -= 1
                        REGISTRY.set_gauge(
                            "campaign_jobs_pending", remaining
                        )
                    outcome.results[job.job_id] = result
            except KeyboardInterrupt:
                self._emit(
                    events,
                    "campaign_interrupted",
                    campaign=self.spec.name,
                    completed_jobs=len(outcome.results),
                )
                self._export_summary(outcome, interrupted=True)
                raise
            self._emit(
                events,
                "campaign_finished",
                campaign=self.spec.name,
                completed_jobs=len(outcome.results),
                failed_jobs=len(outcome.failures),
            )
            self._export_summary(outcome, interrupted=False)
        return outcome

    def _export_summary(
        self, outcome: CampaignResult, interrupted: bool
    ) -> None:
        """Write ``run_summary.json`` next to the event stream.

        Best-effort on the interrupt path — a summary problem must not
        mask the ``KeyboardInterrupt`` already propagating.
        """
        try:
            events = read_events(events_path(self.run_dir))
            summary = build_run_summary(
                campaign=self.spec.name,
                total_jobs=len(self.spec.jobs()),
                job_results={
                    job_id: result.to_dict()
                    for job_id, result in outcome.results.items()
                },
                failures=dict(outcome.failures),
                events=events,
                metrics=REGISTRY.to_dict(),
                interrupted=interrupted,
            )
            write_run_summary(self.run_dir, summary)
        except Exception:
            if not interrupted:
                raise

    def _emit(
        self, events: EventLog, kind: str, **fields: Any
    ) -> Dict[str, Any]:
        record = events.emit(kind, **fields)
        if self._on_event is not None:
            self._on_event(record)
        return record

    def _run_job(self, job: JobSpec, events: EventLog) -> JobResult:
        problem = self._problem(job.instance)
        config = job.configure(self.spec.config)
        job_started = time.perf_counter()
        state = ckpt.load_checkpoint(self.run_dir, job.job_id, config)
        resumed_from = state.generation if state is not None else 0
        self._emit(
            events,
            "job_started",
            job_id=job.job_id,
            instance=job.instance,
            dvs=job.dvs.value,
            use_probabilities=job.use_probabilities,
            seed=job.seed,
            resumed_from=resumed_from,
        )

        def on_generation(snapshot: GAState) -> None:
            self._emit(
                events,
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
                self._emit(
                    events,
                    "checkpointed",
                    job_id=job.job_id,
                    generation=snapshot.generation,
                )

        synthesis = MultiModeSynthesizer(problem, config).run(
            resume=state, on_generation=on_generation
        )
        validate_implementation(synthesis.best)
        result = JobResult(
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
        ckpt.write_result(self.run_dir, job.job_id, result.to_dict())
        ckpt.clear_checkpoint(self.run_dir, job.job_id)
        REGISTRY.inc("campaign_jobs_finished_total")
        REGISTRY.observe(
            "campaign_job_seconds", time.perf_counter() - job_started
        )
        self._emit(
            events,
            "job_finished",
            **_finished_fields(result, config.max_generations),
        )
        return result


def _finished_fields(
    result: JobResult, max_generations: int
) -> Dict[str, Any]:
    """The fields of a job's ``job_finished`` event."""
    return dict(
        job_id=result.job_id,
        instance=result.instance,
        modes=result.modes,
        dvs=result.dvs,
        use_probabilities=result.use_probabilities,
        seed=result.seed,
        power=result.power,
        cpu_time=result.cpu_time,
        feasible=result.feasible,
        converged=result.generations < max_generations,
        generations=result.generations,
        evaluations=result.evaluations,
        perf=result.perf,
        mode_powers=result.mode_powers,
    )


# ----------------------------------------------------------------------
# Convenience entry points
# ----------------------------------------------------------------------


def run_campaign(
    spec: CampaignSpec,
    run_dir: PathLike,
    problem_loader: Optional[Callable[[str], Problem]] = None,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> CampaignResult:
    """Execute ``spec`` against ``run_dir`` (creating it as needed)."""
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
    completed jobs are skipped, checkpointed jobs resume
    bit-identically from their latest snapshot.
    """
    spec = CampaignSpec.load(ckpt.spec_path(run_dir))
    return CampaignRunner(
        spec, run_dir, problem_loader=problem_loader, on_event=on_event
    ).run()
