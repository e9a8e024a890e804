"""The compact evaluation result shipped between processes.

The GA only needs a candidate's fitness and its constraint-violation
summary to drive selection and the repair mutations; the fully decoded
:class:`~repro.mapping.implementation.Implementation` (core tables, and
schedules once read) is reconstructed once at the end for the best
genome.  Keeping
pool results this small makes parallel dispatch cheap: a worker returns
a few floats and tuples of names, never a schedule or a problem
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.obs.metrics import REGISTRY, MetricKey, metric_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.decode_cache import DecodeContext
    from repro.mapping.implementation import Implementation
    from repro.problem import Problem
    from repro.synthesis.config import SynthesisConfig


#: ``engine_evaluations_total`` per outcome, resolved once.
_EVALUATIONS: Dict[str, MetricKey] = {
    outcome: metric_key("engine_evaluations_total", {"outcome": outcome})
    for outcome in ("infeasible", "feasible", "violating")
}


@dataclass(frozen=True)
class EvalRecord:
    """Per-genome evaluation outcome (picklable, problem-free)."""

    fitness: float
    area_violating_pes: Tuple[str, ...] = ()
    timing_violating_modes: Tuple[str, ...] = ()
    transition_violating: bool = False
    feasible: bool = False


def record_from_implementation(
    implementation: Optional["Implementation"],
) -> EvalRecord:
    """Summarise one decoded implementation (``None`` = comm-infeasible).

    Every candidate evaluation in the system funnels through here —
    serial, cached-context or pool-worker alike — which makes it the
    one place to meter evaluation throughput and feasibility.
    """
    if implementation is None:
        REGISTRY.add(_EVALUATIONS["infeasible"])
        return EvalRecord(fitness=math.inf)
    metrics = implementation.metrics
    REGISTRY.add(
        _EVALUATIONS["feasible" if metrics.is_feasible else "violating"]
    )
    return EvalRecord(
        fitness=metrics.fitness,
        area_violating_pes=tuple(sorted(metrics.area_violation)),
        timing_violating_modes=tuple(sorted(metrics.timing_violation)),
        transition_violating=bool(metrics.transition_violation),
        feasible=metrics.is_feasible,
    )


def evaluate_genes(
    problem: "Problem",
    genes: Sequence[str],
    config: "SynthesisConfig",
    context: Optional["DecodeContext"] = None,
) -> EvalRecord:
    """Evaluate one genome given as its raw gene tuple.

    This is the worker-side entry point: genomes cross the process
    boundary as plain string tuples (cheap pickles) and are rebuilt
    against the worker's own :class:`Problem` instance.
    """
    from repro.mapping.encoding import MappingString
    from repro.synthesis.evaluator import evaluate_mapping

    mapping = MappingString(problem, genes)
    implementation = evaluate_mapping(problem, mapping, config, context)
    return record_from_implementation(implementation)
