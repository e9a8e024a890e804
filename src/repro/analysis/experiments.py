"""Experiment drivers: the with/without-probability comparisons.

Each comparison runs the co-synthesis twice per repetition — once with
the probability-neglecting fitness, once with the proposed
probability-aware fitness — and averages the resulting true-probability
powers over the repetitions, exactly the protocol behind the paper's
Tables 1–3 (the paper averages 40 runs; the repetition count here is a
parameter so test suites stay fast).

Since PR 2 the drivers are thin wrappers over the campaign runtime
(:mod:`repro.runtime`): every comparison expands to a
:class:`~repro.runtime.spec.CampaignSpec`, executes on the
:class:`~repro.runtime.runner.CampaignRunner` (durable checkpoints,
JSONL events) and aggregates the per-job results.  Pass
``run_dir`` to keep the run directory — re-invoking with the same
directory resumes instead of recomputing — or leave it ``None`` for a
throw-away temporary directory.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.benchgen.smartphone import smartphone_problem
from repro.benchgen.suite import SUITE_SPECS
from repro.errors import CampaignError
from repro.problem import Problem
from repro.runtime.runner import JobResult, PathLike, run_campaign
from repro.runtime.spec import CampaignSpec
from repro.synthesis.config import DvsMethod, SynthesisConfig


@dataclass
class PolicyOutcome:
    """Aggregated runs of one probability policy on one instance."""

    powers: List[float] = field(default_factory=list)
    cpu_times: List[float] = field(default_factory=list)
    feasible: List[bool] = field(default_factory=list)

    @property
    def mean_power(self) -> float:
        """Average power over the *feasible* runs.

        An infeasible candidate's power is meaningless (it may be
        arbitrarily low by violating constraints), so runs that ended
        infeasible are excluded — the paper reports implementations,
        i.e. feasible solutions.  Falls back to all runs only when no
        run was feasible.
        """
        chosen = [
            p for p, ok in zip(self.powers, self.feasible) if ok
        ]
        if not chosen:
            chosen = self.powers
        return statistics.mean(chosen)

    @property
    def mean_cpu_time(self) -> float:
        return statistics.mean(self.cpu_times)

    @property
    def power_stdev(self) -> float:
        chosen = [
            p for p, ok in zip(self.powers, self.feasible) if ok
        ] or self.powers
        if len(chosen) < 2:
            return 0.0
        return statistics.stdev(chosen)

    def add(self, power: float, cpu_time: float, feasible: bool) -> None:
        self.powers.append(power)
        self.cpu_times.append(cpu_time)
        self.feasible.append(feasible)


@dataclass
class ComparisonResult:
    """Result of comparing the two policies on one instance.

    Mirrors one row of the paper's Tables 1/2: average power and CPU
    time for the probability-neglecting and the proposed approach, plus
    the relative reduction.
    """

    example: str
    modes: int
    without: PolicyOutcome
    with_probabilities: PolicyOutcome
    runs: int

    @property
    def reduction_pct(self) -> float:
        """Power reduction achieved by considering probabilities (%)."""
        baseline = self.without.mean_power
        if baseline <= 0:
            return 0.0
        return 100.0 * (baseline - self.with_probabilities.mean_power) / (
            baseline
        )


def _fold_row(records: Sequence[Mapping[str, Any]]) -> ComparisonResult:
    """Fold the finished-job records of one row into a Table-1/2/3 row.

    A record is a :meth:`JobResult.to_dict` or a ``job_finished`` event;
    only ``instance``, ``modes``, ``seed``, ``use_probabilities``,
    ``power``, ``cpu_time`` and ``feasible`` are read.  Runs of each
    policy are ordered by seed, so the row does not depend on the order
    in which the jobs finished.
    """
    without = PolicyOutcome()
    with_probabilities = PolicyOutcome()
    for record in sorted(records, key=lambda r: r["seed"]):
        outcome = (
            with_probabilities if record["use_probabilities"] else without
        )
        outcome.add(record["power"], record["cpu_time"], record["feasible"])
    return ComparisonResult(
        example=records[0]["instance"],
        modes=records[0]["modes"],
        without=without,
        with_probabilities=with_probabilities,
        runs=max(len(without.powers), len(with_probabilities.powers)),
    )


def comparison_rows(
    records: Iterable[Mapping[str, Any]],
    spec: Optional[CampaignSpec] = None,
) -> Dict[Tuple[str, str], ComparisonResult]:
    """One row per (instance, DVS method) of finished-job records.

    Rows follow ``spec``'s instances and DVS methods when it is given
    (campaign workers finish jobs out of queue order), else the order
    in which each (instance, DVS method) first appears.  Records are
    read as :func:`_fold_row` reads them, plus ``dvs``.
    """
    groups: Dict[Tuple[str, str], List[Mapping[str, Any]]] = {}
    if spec is not None:
        for instance in spec.instances:
            for method in spec.dvs_methods:
                groups[(instance, method.value)] = []
    for record in records:
        groups.setdefault((record["instance"], record["dvs"]), []).append(
            record
        )
    return {key: _fold_row(group) for key, group in groups.items() if group}


def comparison_from_job_results(
    results: Sequence[JobResult],
    example: Optional[str] = None,
    modes: Optional[int] = None,
) -> ComparisonResult:
    """Fold one instance's job results into a Table-1/2 row.

    ``results`` must all belong to the same instance (and DVS method);
    runs of each policy are ordered by seed so the aggregation is
    independent of the execution order.
    """
    if not results:
        raise CampaignError("no job results to aggregate")
    instances = {r.instance for r in results}
    if len(instances) != 1:
        raise CampaignError(
            f"job results span several instances: {sorted(instances)}"
        )
    row = _fold_row([result.to_dict() for result in results])
    if example is not None:
        row.example = example
    if modes is not None:
        row.modes = modes
    return row


def _run_comparison_campaign(
    spec: CampaignSpec,
    run_dir: Optional[PathLike],
    problem_loader: Optional[Callable[[str], Problem]] = None,
) -> Dict[Tuple[str, str], ComparisonResult]:
    """Execute ``spec`` (in a temp dir unless one is given); its rows.

    A job failure in a comparison campaign invalidates the paired
    aggregate, so failures raise instead of being summarised away.
    """
    outcome = run_campaign(spec, run_dir, problem_loader=problem_loader)
    if outcome.failures:
        raise CampaignError(
            f"{len(outcome.failures)} campaign job(s) failed: "
            f"{outcome.failures}"
        )
    return comparison_rows(
        [result.to_dict() for result in outcome.job_results()], spec
    )


def compare_policies(
    problem: Problem,
    config: Optional[SynthesisConfig] = None,
    runs: int = 5,
    base_seed: int = 0,
    run_dir: Optional[PathLike] = None,
) -> ComparisonResult:
    """Run both probability policies ``runs`` times and aggregate.

    Run ``i`` of both policies shares seed ``base_seed + i`` so the
    comparison is paired: both GAs start from the same initial
    population and differ only in the fitness weighting.
    """
    if config is None:
        config = SynthesisConfig()
    spec = CampaignSpec(
        name=f"compare-{problem.name}",
        instances=[problem.name],
        dvs_methods=[config.dvs],
        probability_settings=[False, True],
        runs=runs,
        base_seed=base_seed,
        config=config,
    )
    (row,) = _run_comparison_campaign(
        spec, run_dir, problem_loader=lambda name: problem
    ).values()
    return row


def run_suite_experiment(
    dvs: DvsMethod = DvsMethod.NONE,
    runs: int = 5,
    config: Optional[SynthesisConfig] = None,
    examples: Optional[Sequence[str]] = None,
    base_seed: int = 400,
    run_dir: Optional[PathLike] = None,
) -> List[ComparisonResult]:
    """Tables 1 and 2: the with/without-Ψ comparison over mul1–mul12.

    ``dvs=DvsMethod.NONE`` reproduces Table 1,
    ``dvs=DvsMethod.GRADIENT`` Table 2.
    """
    if config is None:
        config = SynthesisConfig()
    config = config.with_updates(dvs=dvs)
    instances = [
        spec.name
        for spec in SUITE_SPECS
        if examples is None or spec.name in examples
    ]
    spec = CampaignSpec(
        name=f"suite-{dvs.value}",
        instances=instances,
        dvs_methods=[dvs],
        probability_settings=[False, True],
        runs=runs,
        base_seed=base_seed,
        config=config,
    )
    return list(_run_comparison_campaign(spec, run_dir).values())


def run_smartphone_experiment(
    runs: int = 3,
    config: Optional[SynthesisConfig] = None,
    base_seed: int = 400,
    run_dir: Optional[PathLike] = None,
) -> Dict[str, ComparisonResult]:
    """Table 3: the smart phone, without and with DVS."""
    if config is None:
        config = SynthesisConfig()
    spec = CampaignSpec(
        name="smartphone",
        instances=["smartphone"],
        dvs_methods=[DvsMethod.NONE, DvsMethod.GRADIENT],
        probability_settings=[False, True],
        runs=runs,
        base_seed=base_seed,
        config=config,
    )
    rows = _run_comparison_campaign(
        spec, run_dir, problem_loader=lambda name: smartphone_problem()
    )
    return {
        "w/o DVS": rows[("smartphone", DvsMethod.NONE.value)],
        "with DVS": rows[("smartphone", DvsMethod.GRADIENT.value)],
    }
