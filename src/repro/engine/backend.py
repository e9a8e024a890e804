"""Where one synthesis run's genome batches get evaluated.

The :class:`~repro.synthesis.driver.GenerationDriver` never touches a
pool directly: it submits genome batches to an
:class:`EvaluationBackend` and drains records back, and the backend
decides *where* they are computed — in-process
(:class:`SerialBackend`) or on a ``multiprocessing`` pool
(:class:`PooledBackend`).  Evaluation is a pure function of the
genome, so both backends are bit-identical for the same genomes; they
differ only in wall-clock and accounting.

The pool's workers are initialised exactly once: under the ``fork``
start method they inherit the problem, configuration, decode context
and the parent's warm mode-result cache copy-on-write; elsewhere they
rebuild them from one pickled payload.  Per batch, only raw gene tuples
travel out and compact :class:`~repro.engine.records.EvalRecord`
objects come back.

The protocol is submit/drain shaped because a pooled batch runs in two
halves: :meth:`PooledBackend.submit` starts static chunks on the pool
(``map_async``) and :meth:`PooledBackend.drain` evaluates the parent's
own chunk while the workers run, then collects theirs.  Speculation is
the first half run early: during breeding the driver offers the
predicted next batch to :meth:`EvaluationBackend.speculate`, the pool
starts on it, and the next :meth:`~EvaluationBackend.submit` of the
identical gene-tuple list adopts that dispatch instead of starting a
new one.  Any other batch collects it first and counts it as discarded.

A *failed* pool (worker crash, pickling surprise, platform without
multiprocessing) is retired and the run continues with in-process
evaluation, counted in ``PerfStats.pool_fallbacks`` and announced with
a :class:`RuntimeWarning`, never silently.  The batch in flight is
re-evaluated in-process, so the results do not change.

Every backend keeps its accounting in one
:class:`~repro.engine.profile.PerfStats`, :attr:`EvaluationBackend.perf`,
which :meth:`EvaluationBackend.finalize_perf` merges into the run's.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.pool
import pickle
import signal
import time
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.engine.decode_cache import DecodeContext, context_for
from repro.engine.profile import PROFILER, PerfStats, PhaseTotals
from repro.engine.records import (
    EvalRecord,
    evaluate_genes,
    record_from_implementation,
)
from repro.eval.cache import mode_cache_for
from repro.obs.metrics import REGISTRY, MetricsSnapshot
from repro.problem import Problem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mapping.encoding import MappingString
    from repro.synthesis.config import SynthesisConfig

#: Gene tuple of one genome — what crosses the process boundary.
GeneTuple = Tuple[str, ...]

# Worker-process globals, populated by _init_worker (spawn) or set in
# the parent before forking (fork start method inherits them for free).
_worker_problem: Optional[Problem] = None
_worker_config: Optional["SynthesisConfig"] = None
_worker_context: Optional[DecodeContext] = None


def _init_worker(payload: bytes) -> None:
    """Rebuild problem + config + decode context inside a pool worker."""
    global _worker_problem, _worker_config, _worker_context
    omsm, architecture, technology, config = pickle.loads(payload)
    _worker_problem = Problem(omsm, architecture, technology)
    _worker_config = config
    _worker_context = DecodeContext.build(_worker_problem)
    _init_forked_worker()


def _init_forked_worker() -> None:
    """Start a worker's phase totals and metrics from zero.

    Forked workers inherit the parent's accumulated figures; the deltas
    shipped back must only cover work done in this process.  Ctrl-C is
    left to the parent, which terminates the pool: a worker killed by
    SIGINT while it holds the task queue's lock would deadlock that
    terminate.  SIGTERM, which that terminate sends, gets its default
    action back: a pool forked while a campaign turns SIGTERM into
    ``KeyboardInterrupt`` would otherwise make every busy worker print
    a traceback as it is stopped.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    PROFILER.reset()
    REGISTRY.reset()


def _eval_chunk(
    chunk: Sequence[GeneTuple],
) -> Tuple[List[EvalRecord], PhaseTotals, MetricsSnapshot, float]:
    """Evaluate one chunk of genomes; returns records + profile/metric deltas."""
    assert _worker_problem is not None and _worker_config is not None
    base = PROFILER.snapshot()
    metrics_base = REGISTRY.snapshot()
    started = time.perf_counter()
    records = [
        evaluate_genes(_worker_problem, genes, _worker_config, _worker_context)
        for genes in chunk
    ]
    busy = time.perf_counter() - started
    return (
        records,
        PROFILER.delta_since(base),
        REGISTRY.delta_since(metrics_base),
        busy,
    )


class EvaluationBackend(ABC):
    """Where one synthesis run's genome batches get evaluated.

    Usage protocol, per batch: :meth:`submit` a deduplicated list of
    genomes, then :meth:`drain` their records in submission order.
    One batch may be outstanding at a time.  :meth:`speculate` offers
    the *predicted* next batch for early dispatch (or is ignored — the
    default); a prediction the driver abandons is cleaned up by
    :meth:`cancel_speculation`.  The backend adds its accounting
    straight into :attr:`perf`; :meth:`finalize_perf` merges that into
    the run's :class:`PerfStats`.  :meth:`close` / :meth:`terminate`
    end service.
    """

    #: Configured worker count (1 = in-process).
    jobs: int = 1

    def __init__(self, problem: Problem, config: "SynthesisConfig") -> None:
        self.problem = problem
        self.config = config
        #: This backend's share of the run's ledger.
        self.perf = PerfStats(jobs=self.jobs)

    @abstractmethod
    def submit(self, genomes: Sequence["MappingString"]) -> None:
        """Accept one batch of genomes for evaluation."""

    @abstractmethod
    def drain(self) -> List[EvalRecord]:
        """Records of the submitted batch, in submission order."""

    @property
    def supports_speculation(self) -> bool:
        """Whether :meth:`speculate` can do anything useful right now."""
        return False

    def speculate(self, genomes: Sequence["MappingString"]) -> int:
        """Offer the predicted next batch for early dispatch.

        Returns the number of genomes dispatched early; backends
        without idle capacity to fill simply return 0.
        """
        return 0

    def cancel_speculation(self) -> None:
        """Abandon any outstanding speculative dispatch."""

    def _evaluate_in_process(
        self, genomes: Sequence["MappingString"]
    ) -> List[EvalRecord]:
        """Evaluate mapping strings in this process, with accounting.

        The one in-process path: serial batches, a pool's tiny and
        post-fallback batches and the local-search polish.  Takes the
        :class:`~repro.mapping.encoding.MappingString` objects
        themselves (not gene tuples), so nothing is re-validated.
        """
        from repro.synthesis.evaluator import evaluate_mapping

        context = context_for(self.problem)
        started = time.perf_counter()
        records = [
            record_from_implementation(
                evaluate_mapping(self.problem, genome, self.config, context)
            )
            for genome in genomes
        ]
        self.perf.inprocess_evaluations += len(records)
        self.perf.inprocess_eval_seconds += time.perf_counter() - started
        return records

    def finalize_perf(self, perf: PerfStats) -> None:
        """Merge this backend's ledger into a run's :class:`PerfStats`."""
        perf.merge(self.perf)

    def close(self) -> None:
        """Graceful shutdown (idempotent)."""

    def terminate(self) -> None:
        """Hard stop for abnormal exits (idempotent)."""


class SerialBackend(EvaluationBackend):
    """In-process evaluation — the reference backend."""

    def __init__(self, problem: Problem, config: "SynthesisConfig") -> None:
        super().__init__(problem, config)
        self._pending: Optional[List["MappingString"]] = None

    def submit(self, genomes: Sequence["MappingString"]) -> None:
        assert self._pending is None, "one batch may be outstanding"
        self._pending = list(genomes)

    def drain(self) -> List[EvalRecord]:
        assert self._pending is not None, "nothing submitted"
        genomes, self._pending = self._pending, None
        return self._evaluate_in_process(genomes)


@dataclass
class _Dispatch:
    """One batch started on the pool.

    ``pending`` carries every chunk but the last, which the parent
    evaluates itself (``local``) when the batch is drained.
    """

    genes: List[GeneTuple]
    pending: "multiprocessing.pool.MapResult[Any]"
    local: List[GeneTuple]
    started: float


class PooledBackend(EvaluationBackend):
    """Static-chunk evaluation on a ``multiprocessing`` pool.

    Each batch is split into two chunks per worker; the workers take
    all chunks but the last and the parent evaluates that one itself
    instead of blocking idle.  Batches smaller than the worker count
    are evaluated in-process — dispatch and result pickling would cost
    more than the evaluations — and so is everything after the pool
    has failed.
    """

    def __init__(self, problem: Problem, config: "SynthesisConfig") -> None:
        self.jobs = max(1, config.jobs)
        super().__init__(problem, config)
        self.last_pool_error: Optional[str] = None
        #: Start of the pool's open service window (``None`` = no pool).
        self._pool_started: Optional[float] = None
        self._genomes: Optional[List["MappingString"]] = None
        self._dispatch: Optional[_Dispatch] = None
        self._early: Optional[_Dispatch] = None
        self._pool: Optional[multiprocessing.pool.Pool] = None
        if self.jobs > 1:
            self._pool = self._create_pool()
        if self._pool is not None:
            self.perf.pool_workers = self.jobs
            self._pool_started = time.perf_counter()
            REGISTRY.set_gauge("engine_pool_workers", self.jobs)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _create_pool(self) -> Optional[multiprocessing.pool.Pool]:
        try:
            if multiprocessing.get_start_method() == "fork":
                # Forked workers share the parent's address space
                # copy-on-write: publish the problem, config and the
                # parent's (memoised) decode context as module globals
                # right before forking, and every worker starts with
                # them already built.  The parent's mode-result cache
                # is materialised too: workers inherit its warm entries
                # and keep their own copies from there on (their
                # hits/misses still reach the parent via the metric
                # deltas shipped with each chunk).
                global _worker_problem, _worker_config, _worker_context
                _worker_problem = self.problem
                _worker_config = self.config
                _worker_context = context_for(self.problem)
                mode_cache_for(self.problem, self.config)
                return multiprocessing.Pool(
                    processes=self.jobs, initializer=_init_forked_worker
                )
            payload = pickle.dumps(
                (
                    self.problem.omsm,
                    self.problem.architecture,
                    self.problem.technology,
                    self.config,
                )
            )
            return multiprocessing.Pool(
                processes=self.jobs,
                initializer=_init_worker,
                initargs=(payload,),
            )
        except Exception as exc:  # pragma: no cover - platform-dependent
            self._fail("creation", exc)
            return None

    @property
    def uses_pool(self) -> bool:
        return self._pool is not None

    def _book_service_window(self) -> None:
        """Add the open service window to ``perf`` and restart it."""
        if self._pool_started is not None:
            now = time.perf_counter()
            self.perf.pool_service_seconds += now - self._pool_started
            self._pool_started = now

    def _retire_pool(self, graceful: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self._book_service_window()
        self._pool_started = None
        try:
            if graceful:
                pool.close()
            else:
                pool.terminate()
            pool.join()
        except Exception:  # pragma: no cover - teardown robustness
            pool.terminate()

    def _fail(self, stage: str, exc: BaseException) -> None:
        """Retire the pool after a failure and warn."""
        self._retire_pool(graceful=False)
        self.last_pool_error = f"{stage}: {exc!r}"
        REGISTRY.inc("engine_pool_failures_total", stage=stage)
        # The fallback transition is surfaced three ways: the counter
        # below, the pool_workers gauge dropping to zero, and the
        # RuntimeWarning for interactive runs.
        self.perf.pool_fallbacks += 1
        REGISTRY.set_gauge("engine_pool_workers", 0)
        warnings.warn(
            f"parallel evaluation pool {stage} failed ({exc!r}); "
            f"continuing with in-process evaluation",
            RuntimeWarning,
            stacklevel=3,
        )

    def close(self) -> None:
        """Graceful shutdown (idempotent).

        An early dispatch still outstanding is collected first and
        booked as discarded, so the join never waits on work nobody
        accounts for.
        """
        self.cancel_speculation()
        self._retire_pool(graceful=True)

    def terminate(self) -> None:
        """Hard-stop the pool without collecting outstanding work.

        The shutdown path for abnormal exits (KeyboardInterrupt,
        errors): after an interrupt the pool's internal feeder thread
        may already be dead, in which case ``close()``'s join would
        block forever waiting for worker sentinels.
        """
        self._dispatch = self._early = None
        self._retire_pool(graceful=False)

    # ------------------------------------------------------------------
    # Dispatch and collection
    # ------------------------------------------------------------------

    def _start(self, genes: List[GeneTuple], stage: str) -> Optional[_Dispatch]:
        """The first half of a batch: put all chunks but the last on the pool."""
        assert self._pool is not None
        # Two chunks per job: small enough for the pool to balance load
        # across workers, large enough that per-chunk pickling/wakeup
        # overhead stays negligible.
        size = max(1, math.ceil(len(genes) / (self.jobs * 2)))
        chunks = [genes[i : i + size] for i in range(0, len(genes), size)]
        started = time.perf_counter()
        try:
            pending = self._pool.map_async(_eval_chunk, chunks[:-1])
        except Exception as exc:
            self._fail(stage, exc)
            return None
        return _Dispatch(genes, pending, chunks[-1], started)

    def _collect(self, dispatch: _Dispatch) -> List[EvalRecord]:
        """Wait for a dispatch's pool chunks and fold in their accounting."""
        pending = dispatch.pending
        # A pool torn down with chunks outstanding never completes
        # them: watch its state so that surfaces as a failure, not a
        # hang.
        while not pending.ready():
            if getattr(self._pool, "_state", None) != multiprocessing.pool.RUN:
                raise RuntimeError("pool stopped with chunks outstanding")
            pending.wait(0.05)
        records: List[EvalRecord] = []
        for chunk_records, phase_delta, metrics_delta, busy in pending.get():
            records.extend(chunk_records)
            self.perf.pool_busy_seconds += busy
            self.perf.merge_phase_totals(phase_delta)
            # Fold the worker's metric delta into this process's
            # registry: the pool is transparent to observability.
            REGISTRY.merge(metrics_delta)
            REGISTRY.observe("engine_chunk_seconds", busy)
        self.perf.pool_dispatch_seconds += (
            time.perf_counter() - dispatch.started
        )
        return records

    def submit(self, genomes: Sequence["MappingString"]) -> None:
        assert self._genomes is None, "one batch may be outstanding"
        self._genomes = list(genomes)
        genes = [genome.genes for genome in self._genomes]
        early, self._early = self._early, None
        if early is not None:
            if early.genes == genes:
                self._dispatch = early
                self.perf.speculation_hits += len(genes)
                return
            self._discard(early)
        if self._pool is not None and len(genes) >= self.jobs:
            self._dispatch = self._start(genes, "dispatch")

    def drain(self) -> List[EvalRecord]:
        assert self._genomes is not None, "nothing submitted"
        genomes, self._genomes = self._genomes, None
        dispatch, self._dispatch = self._dispatch, None
        if dispatch is not None:
            # The parent is a worker too: it evaluates the last chunk
            # while the pool runs the rest.  Its phase timings land in
            # the global PROFILER like any in-process evaluation.
            context = context_for(self.problem)
            local = [
                evaluate_genes(self.problem, genes, self.config, context)
                for genes in dispatch.local
            ]
            try:
                records = self._collect(dispatch)
            except Exception as exc:
                # The batch is re-evaluated in-process below.
                self._fail("dispatch", exc)
            else:
                self.perf.parallel_evaluations += len(records)
                self.perf.batches += 1
                return records + local
        return self._evaluate_in_process(genomes)

    # ------------------------------------------------------------------
    # Speculation: early dispatch of the predicted next batch
    # ------------------------------------------------------------------

    @property
    def supports_speculation(self) -> bool:
        return self._pool is not None

    def speculate(self, genomes: Sequence["MappingString"]) -> int:
        """Start the pool on the predicted next batch during breeding.

        Runs the first half of :meth:`submit` early; returns the number
        of genomes dispatched (0 without a live pool, or for a batch
        :meth:`submit` would evaluate in-process anyway).
        """
        assert self._genomes is None, "speculate between batches only"
        self.cancel_speculation()
        genes = [genome.genes for genome in genomes]
        if self._pool is None or len(genes) < self.jobs:
            return 0
        self._early = self._start(genes, "speculate")
        if self._early is None:
            return 0
        self.perf.speculation_issued += len(genes)
        return len(genes)

    def cancel_speculation(self) -> None:
        early, self._early = self._early, None
        if early is not None:
            self._discard(early)

    def _discard(self, dispatch: _Dispatch) -> None:
        """Collect an early dispatch no batch adopted; count it discarded."""
        try:
            self._collect(dispatch)
        except Exception as exc:
            self._fail("speculate", exc)
        self.perf.speculation_discards += len(dispatch.genes)

    def finalize_perf(self, perf: PerfStats) -> None:
        self._book_service_window()
        super().finalize_perf(perf)


def backend_for(
    problem: Problem, config: "SynthesisConfig"
) -> EvaluationBackend:
    """The backend a configuration asks for: serial or pooled."""
    if config.jobs > 1:
        return PooledBackend(problem, config)
    return SerialBackend(problem, config)
