"""Staged incremental evaluation pipeline with a per-mode result cache.

The package is the one candidate evaluator: it runs each candidate
through explicit stages (:mod:`repro.eval.stages`), memoises per-mode
stage results in a bounded LRU (:mod:`repro.eval.cache`) and
orchestrates both from
:func:`~repro.eval.pipeline.evaluate_mapping_incremental`
(:mod:`repro.eval.pipeline`), which
:func:`repro.synthesis.evaluator.evaluate_mapping` forwards to.  Its
bit-identity oracle is the frozen seed evaluator in
``tests/oracles/seed_evaluator.py`` — a single monolithic pass with no
decode context, no cache and the seed PV-DVS implementation — which
the test suite can also swap in for whole GA runs.
"""

from repro.eval.cache import (
    ModeOutcome,
    ModePrep,
    ModeResultCache,
    config_fingerprint,
    mode_cache_for,
)
from repro.eval.pipeline import evaluate_mapping_incremental
from repro.eval.stages import core_signature, prepare_mode, run_mode

__all__ = [
    "ModeOutcome",
    "ModePrep",
    "ModeResultCache",
    "config_fingerprint",
    "core_signature",
    "evaluate_mapping_incremental",
    "mode_cache_for",
    "prepare_mode",
    "run_mode",
]
