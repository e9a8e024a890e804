"""The evaluation engine: decode caching, pooled dispatch, profiling.

The GA outer loop evaluates thousands of independent mapping candidates
per run; this package makes that hot path fast without changing a single
result.  It provides three cooperating layers:

* :mod:`repro.engine.decode_cache` — everything that depends only on the
  problem (implementation tables, adjacency, feasible links, voltage
  tables) is computed once per process in a :class:`DecodeContext` and
  shared by all candidate evaluations.
* :mod:`repro.engine.backend` — the :class:`EvaluationBackend` a
  generation's unique, uncached genomes are submitted to: in-process
  (:class:`SerialBackend`) or a static-chunk ``multiprocessing`` pool
  (:class:`PooledBackend`, which falls back to in-process evaluation
  for tiny batches or when the pool dies, and starts the predicted
  next batch early while the parent breeds).  Results are
  bit-identical to serial evaluation.
* :mod:`repro.engine.profile` — the evaluator's per-phase timers
  (:data:`PROFILER`, a view of the metrics registry's phase table,
  :mod:`repro.obs.metrics`) and the :class:`PerfStats` ledger exposed
  on ``SynthesisResult.perf``.
"""

from repro.engine.backend import (
    EvaluationBackend,
    PooledBackend,
    SerialBackend,
    backend_for,
)
from repro.engine.decode_cache import DecodeContext, context_for
from repro.engine.profile import PROFILER, PerfStats, PhaseProfiler
from repro.engine.records import EvalRecord, evaluate_genes

__all__ = [
    "DecodeContext",
    "context_for",
    "EvaluationBackend",
    "PooledBackend",
    "SerialBackend",
    "backend_for",
    "PROFILER",
    "PerfStats",
    "PhaseProfiler",
    "EvalRecord",
    "evaluate_genes",
]
