"""Frozen reference implementations the runtime is pinned against.

Nothing under ``src/`` imports this package; it exists so the test
suite (and the benchmark scripts) can compare the one runtime path per
algorithm with the seed behaviour, bit for bit:

* :mod:`tests.oracles.pv_dvs_reference` — the seed's dict-based PV-DVS
  (gradient and uniform), the reference for :mod:`repro.dvs.pv_dvs`;
* :mod:`tests.oracles.seed_evaluator` — the seed's monolithic
  recompute-per-candidate evaluator, the reference for the staged
  pipeline of :mod:`repro.eval`, plus :func:`seed_path`, which swaps it
  in for whole synthesis runs.
"""

from tests.oracles.seed_evaluator import seed_path

__all__ = ["seed_path"]
