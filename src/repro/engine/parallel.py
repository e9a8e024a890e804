"""Process-pool evaluation of GA candidate batches.

A :class:`ParallelEvaluator` owns a ``multiprocessing`` pool whose
workers are initialised exactly once with the pickled problem parts and
synthesis configuration; each worker rebuilds the :class:`Problem` and
its :class:`~repro.engine.decode_cache.DecodeContext` at startup, so
per-candidate dispatch only ships raw gene tuples out and compact
:class:`~repro.engine.records.EvalRecord` objects back.

Evaluation is a pure function of the genome, so dispatch order cannot
change results: a batch evaluated on ``jobs=N`` workers is bit-identical
to the same batch evaluated serially (the determinism tests pin this).
When ``jobs == 1`` the evaluator runs in-process.

Two pool strategies share this façade.  The default
(``SynthesisConfig.async_pool``) is the work-stealing asynchronous pool
of :mod:`repro.engine.async_pool`: workers pull single genomes from a
shared task queue, results merge as they land, and mode-cache entries
computed by one worker are published to all others.  Disabling it
restores the original per-generation barrier pool (static chunks,
``map_async``, diverging copy-on-write caches) as an ablation oracle —
both strategies produce bit-identical records.

What a *failed* pool
(worker crash, pickling surprise, platform without multiprocessing)
does is governed by ``pool_failure_mode``: ``"fallback"`` degrades to
in-process evaluation — with the failure recorded on
:attr:`ParallelEvaluator.pool_failures` and a :class:`RuntimeWarning`,
never silently — while ``"raise"`` surfaces a
:class:`~repro.errors.WorkerPoolError` so a supervising runtime (the
campaign runner) can retry the job on a fresh pool.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.pool
import pickle
import time
import warnings
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.async_pool import AsyncWorkStealingPool
from repro.engine.decode_cache import DecodeContext, context_for
from repro.engine.profile import PROFILER, PhaseTotals
from repro.engine.records import (
    EvalRecord,
    evaluate_genes,
    record_from_implementation,
)
from repro.eval.cache import mode_cache_for
from repro.errors import WorkerPoolError
from repro.obs.metrics import REGISTRY, MetricsSnapshot
from repro.problem import Problem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.synthesis.config import SynthesisConfig

# Worker-process globals, populated by _init_worker (spawn) or set in
# the parent before forking (fork start method inherits them for free).
_worker_problem: Optional[Problem] = None
_worker_config = None
_worker_context: Optional[DecodeContext] = None


def _init_worker(payload: bytes) -> None:
    """Rebuild problem + config + decode context inside a pool worker."""
    global _worker_problem, _worker_config, _worker_context
    omsm, architecture, technology, config = pickle.loads(payload)
    _worker_problem = Problem(omsm, architecture, technology)
    _worker_config = config
    _worker_context = DecodeContext.build(_worker_problem)
    # Forked workers inherit the parent's accumulated phase totals and
    # metrics; deltas shipped back must only cover work done in this
    # process.
    PROFILER.reset()
    REGISTRY.reset()


def _init_forked_worker() -> None:
    """Initialise a fork-start worker: state arrived copy-on-write."""
    PROFILER.reset()
    REGISTRY.reset()


def evaluate_inprocess(
    problem: Problem,
    config: "SynthesisConfig",
    genomes: Sequence[Any],
) -> Tuple[List[EvalRecord], float]:
    """Evaluate mapping strings in the current process, with accounting.

    The one in-process batch path, shared by the serial backend, the
    synthesizer's no-backend evaluation and the parallel evaluator's
    tiny-batch/fallback route — so ``inprocess_*`` accounting and the
    ``engine_inprocess_evaluations_total`` meter mean the same thing
    everywhere.  Takes the :class:`~repro.mapping.encoding.
    MappingString` objects themselves (not gene tuples) to preserve
    their dirty-mode sets for the incremental pipeline.  Returns the
    records and the wall-clock seconds spent.
    """
    from repro.synthesis.evaluator import evaluate_mapping

    context = context_for(problem)
    started = time.perf_counter()
    records = [
        record_from_implementation(
            evaluate_mapping(problem, genome, config, context)
        )
        for genome in genomes
    ]
    elapsed = time.perf_counter() - started
    REGISTRY.inc(
        "engine_inprocess_evaluations_total", amount=len(records)
    )
    return records, elapsed


def _eval_chunk(
    chunk: Sequence[Tuple[str, ...]],
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


class ParallelEvaluator:
    """Batched candidate evaluation over an optional process pool.

    Parameters
    ----------
    problem / config:
        The synthesis instance; workers receive both in pickled form.
    jobs:
        Worker count; defaults to ``config.jobs``.  ``1`` means no pool
        is created and batches evaluate in-process.
    failure_mode:
        ``"fallback"`` or ``"raise"``; defaults to
        ``config.pool_failure_mode``.  See the module docstring.
    """

    def __init__(
        self,
        problem: Problem,
        config: "SynthesisConfig",
        jobs: Optional[int] = None,
        failure_mode: Optional[str] = None,
    ) -> None:
        self.problem = problem
        self.config = config
        self.jobs = max(1, jobs if jobs is not None else config.jobs)
        self.failure_mode = (
            failure_mode
            if failure_mode is not None
            else getattr(config, "pool_failure_mode", "fallback")
        )
        if self.failure_mode not in ("fallback", "raise"):
            raise ValueError(
                f"unknown pool failure mode {self.failure_mode!r}"
            )
        self.async_pool = bool(getattr(config, "async_pool", True))
        self.batches = 0
        self.parallel_evaluations = 0
        self.pool_busy_seconds = 0.0
        #: Summed per-batch dispatch windows (work outstanding) — the
        #: capacity basis of the corrected pool utilisation.
        self.pool_dispatch_seconds = 0.0
        self.pool_steals = 0
        self.pool_failures = 0
        #: In-process evaluations (tiny batches, post-fallback batches)
        #: and their wall-clock, booked apart from the pool busy window
        #: so they cannot inflate pool utilisation.
        self.inprocess_evaluations = 0
        self.inprocess_eval_seconds = 0.0
        #: Speculative next-generation evaluation accounting, mirrored
        #: from the async pool so the figures survive a pool retirement.
        self.speculation_issued = 0
        self.speculation_hits = 0
        self.speculation_discards = 0
        self.last_pool_error: Optional[str] = None
        self.worker_phase_totals: Dict[str, Tuple[float, int]] = {}
        #: Workers actually placed in service (0 = never had a pool).
        self.pool_workers = 0
        self._pool = None
        self._async: Optional[AsyncWorkStealingPool] = None
        self._pool_started: Optional[float] = None
        self._pool_service_seconds = 0.0
        if self.jobs > 1:
            if self.async_pool:
                self._async = self._create_async_pool()
            else:
                self._pool = self._create_pool()
            if self._pool is not None or self._async is not None:
                self.pool_workers = self.jobs
                self._pool_started = time.perf_counter()
                REGISTRY.set_gauge("engine_pool_workers", self.jobs)

    @property
    def pool_service_seconds(self) -> float:
        """Wall-clock seconds the pool has been (or was) in service."""
        total = self._pool_service_seconds
        if self._pool_started is not None:
            total += time.perf_counter() - self._pool_started
        return total

    def _stop_service_clock(self) -> None:
        if self._pool_started is not None:
            self._pool_service_seconds += (
                time.perf_counter() - self._pool_started
            )
            self._pool_started = None

    def _record_failure(self, stage: str, exc: BaseException) -> None:
        """Count a pool failure and either warn or raise, per mode."""
        self.pool_failures += 1
        self.last_pool_error = f"{stage}: {exc!r}"
        self._stop_service_clock()
        REGISTRY.inc("engine_pool_failures_total", stage=stage)
        if self.failure_mode == "raise":
            raise WorkerPoolError(
                f"worker pool {stage} failed after "
                f"{self.parallel_evaluations} parallel evaluations: {exc!r}"
            ) from exc
        # The fallback transition is surfaced three ways: the counter
        # below, the pool_workers gauge dropping to zero, and the
        # RuntimeWarning for interactive runs.
        REGISTRY.inc("engine_pool_fallbacks_total")
        REGISTRY.set_gauge("engine_pool_workers", 0)
        warnings.warn(
            f"parallel evaluation pool {stage} failed ({exc!r}); "
            f"continuing with in-process evaluation",
            RuntimeWarning,
            stacklevel=3,
        )

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
                # them already built — no pickling, no per-worker
                # Problem/DecodeContext reconstruction.
                global _worker_problem, _worker_config, _worker_context
                _worker_problem = self.problem
                _worker_config = self.config
                _worker_context = context_for(self.problem)
                # Materialise the parent's mode-result cache before
                # forking: workers inherit its warm entries
                # copy-on-write and keep their own copies from there on
                # (hits/misses still reach the parent via the metric
                # deltas shipped with each chunk).
                mode_cache_for(self.problem, self.config)
                return multiprocessing.Pool(
                    processes=self.jobs,
                    initializer=_init_forked_worker,
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
            self._record_failure("creation", exc)
            return None

    def _create_async_pool(self) -> Optional[AsyncWorkStealingPool]:
        try:
            return AsyncWorkStealingPool(
                self.problem, self.config, self.jobs
            )
        except Exception as exc:  # pragma: no cover - platform-dependent
            self._record_failure("creation", exc)
            return None

    def close(self) -> None:
        """Shut the pool down gracefully (idempotent)."""
        if self._async is not None:
            # Outstanding speculation would otherwise finish unobserved
            # inside the pool's join: drain it so its busy time, cache
            # journals and discard counts are accounted first.
            self.cancel_speculation()
        if self._async is not None:
            self._stop_service_clock()
            self._async.close()
            self._async = None
        if self._pool is not None:
            self._stop_service_clock()
            try:
                self._pool.close()
                self._pool.join()
            except Exception:  # pragma: no cover - defensive
                self._pool.terminate()
            self._pool = None

    def terminate(self) -> None:
        """Hard-stop the pool without draining queued tasks.

        The shutdown path for abnormal exits (KeyboardInterrupt,
        errors): after an interrupt the pool's internal feeder thread
        may already be dead, in which case ``close()``'s join would
        block forever waiting for worker sentinels.
        """
        if self._async is not None:
            self._stop_service_clock()
            self._async.terminate()
            self._async = None
        if self._pool is not None:
            self._stop_service_clock()
            try:  # pragma: no cover - teardown robustness
                self._pool.terminate()
                self._pool.join()
            except Exception:
                pass
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    @property
    def uses_pool(self) -> bool:
        return self._pool is not None or self._async is not None

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate_batch(self, genomes: Sequence) -> List[EvalRecord]:
        """Evaluate a batch of (already deduplicated) genomes, in order."""
        if not genomes:
            return []
        # Tiny batches (late generations run mostly from cache) are not
        # worth a round-trip through the pool: dispatch and result
        # pickling cost more than the evaluations.  Results are the
        # same either way, only the wall-clock differs.  The in-process
        # path books its time into the inprocess_* counters, never the
        # pool busy window.  A batch partly covered by outstanding
        # speculation always goes through the pool — the predicted
        # results are already paid for there.
        if self.uses_pool and (
            len(genomes) >= self.jobs
            or self._speculation_covers(genomes)
        ):
            try:
                if self._async is not None:
                    return self._evaluate_async(genomes)
                return self._evaluate_pooled(genomes)
            except Exception as exc:
                # The pool died (worker crash, interpreter teardown,
                # unpicklable surprise).  Retire it either way; then
                # raise WorkerPoolError or fall back to serial
                # evaluation for this and all future batches, per the
                # configured failure mode.
                if self._async is not None:
                    self._async.terminate()
                    self._async = None
                if self._pool is not None:
                    try:  # pragma: no cover - defensive
                        self._pool.terminate()
                    except Exception:
                        pass
                    self._pool = None
                self._record_failure("dispatch", exc)
        return self._evaluate_serial(genomes)

    def _evaluate_serial(self, genomes: Sequence) -> List[EvalRecord]:
        records, elapsed = evaluate_inprocess(
            self.problem, self.config, genomes
        )
        self.inprocess_eval_seconds += elapsed
        self.inprocess_evaluations += len(records)
        return records

    def _evaluate_async(self, genomes: Sequence) -> List[EvalRecord]:
        assert self._async is not None
        batch = self._async.evaluate(
            [genome.genes for genome in genomes],
            self.worker_phase_totals,
        )
        self.pool_busy_seconds += batch.busy_seconds
        self.pool_dispatch_seconds += batch.dispatch_seconds
        self.pool_steals += batch.steals
        self.speculation_hits = self._async.speculation_hits
        self.parallel_evaluations += len(batch.records)
        self.batches += 1
        REGISTRY.inc("engine_pool_batches_total")
        return batch.records

    # ------------------------------------------------------------------
    # Speculative evaluation (async pool only)
    # ------------------------------------------------------------------

    @property
    def supports_speculation(self) -> bool:
        """Whether predicted genomes can be dispatched ahead of time."""
        return self._async is not None

    def _speculation_covers(self, genomes: Sequence) -> bool:
        if self._async is None:
            return False
        return self._async.speculation_covers_any(
            [genome.genes for genome in genomes]
        )

    def speculate(self, genomes: Sequence) -> int:
        """Dispatch predicted genomes to the async pool ahead of time.

        Returns the number of speculative tasks issued (0 when no
        async pool is live).  A dispatch failure retires the pool and
        follows the configured failure mode, exactly like a batch
        dispatch failure — subsequent batches fall back in-process.
        """
        if self._async is None or not genomes:
            return 0
        try:
            issued = self._async.submit_speculative(
                [genome.genes for genome in genomes]
            )
            self.speculation_issued = self._async.speculation_issued
            return issued
        except Exception as exc:
            self._async.terminate()
            self._async = None
            self._record_failure("speculate", exc)
            return 0

    def cancel_speculation(self) -> None:
        """Retire outstanding speculation, folding its accounting in.

        Draining publishes the mispredictions' cache journals; their
        busy and window time is charged to the pool like any batch.
        """
        if self._async is None:
            return
        try:
            batch = self._async.cancel_speculation(
                self.worker_phase_totals
            )
        except Exception as exc:  # pragma: no cover - defensive
            self._async.terminate()
            self._async = None
            self._record_failure("speculate", exc)
            return
        self.pool_busy_seconds += batch.busy_seconds
        self.pool_dispatch_seconds += batch.dispatch_seconds
        self.speculation_discards = self._async.speculation_discards

    def _evaluate_pooled(self, genomes: Sequence) -> List[EvalRecord]:
        gene_tuples = [genome.genes for genome in genomes]
        dispatch_started = time.perf_counter()
        # Two chunks per job: small enough for the pool to balance load
        # across workers, large enough that per-chunk pickling/wakeup
        # overhead stays negligible (measured best on this workload).
        chunk_size = max(1, math.ceil(len(gene_tuples) / (self.jobs * 2)))
        chunks = [
            gene_tuples[start : start + chunk_size]
            for start in range(0, len(gene_tuples), chunk_size)
        ]
        # The dispatching process is a worker too: it evaluates the
        # final chunk itself while the pool drains the rest, instead of
        # blocking idle in map().  Its phase timings land in the global
        # PROFILER like any in-process evaluation.
        pending = self._pool.map_async(_eval_chunk, chunks[:-1])
        context = context_for(self.problem)
        local_records = [
            evaluate_genes(self.problem, genes, self.config, context)
            for genes in chunks[-1]
        ]
        results = pending.get()
        records: List[EvalRecord] = []
        for chunk_records, phase_delta, metrics_delta, busy in results:
            records.extend(chunk_records)
            self.pool_busy_seconds += busy
            for name, (seconds, calls) in phase_delta.items():
                prev_seconds, prev_calls = self.worker_phase_totals.get(
                    name, (0.0, 0)
                )
                self.worker_phase_totals[name] = (
                    prev_seconds + seconds,
                    prev_calls + calls,
                )
            # Fold the worker's metric delta into this process's
            # registry: the pool is transparent to observability.
            REGISTRY.merge(metrics_delta)
            REGISTRY.observe("engine_chunk_seconds", busy)
        self.parallel_evaluations += len(records)
        records.extend(local_records)
        self.pool_dispatch_seconds += (
            time.perf_counter() - dispatch_started
        )
        self.batches += 1
        REGISTRY.inc("engine_pool_batches_total")
        return records
