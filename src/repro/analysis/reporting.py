"""Rendering experiment results in the paper's table layout.

Results arrive either live (the :class:`ComparisonResult` aggregates
the experiment drivers return) or *post hoc* from a campaign run
directory: :func:`results_from_events` rebuilds the same aggregates
from the structured ``events.jsonl`` stream alone, so a finished (or
crashed) campaign can be re-reported without re-running anything.
"""

from __future__ import annotations

import pathlib
import statistics
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.analysis.experiments import ComparisonResult, comparison_rows
from repro.analysis.paper_data import PaperRow
from repro.runtime.spec import CampaignSpec


def _is_complete(result: ComparisonResult) -> bool:
    return bool(result.without.powers and result.with_probabilities.powers)


def _comparison_cells(result: ComparisonResult) -> str:
    """Power (mW) and CPU (s) per policy, then the reduction, of one row.

    A policy with no finished run yet (a live campaign between a pair's
    two jobs, or one whose other job failed) shows ``n/a``, and so does
    the row's reduction.
    """
    cells = ""
    for outcome, width in (
        (result.without, 14),
        (result.with_probabilities, 15),
    ):
        if outcome.powers:
            cells += (
                f"{outcome.mean_power * 1e3:>{width}.3f}"
                f"{outcome.mean_cpu_time:>10.1f}"
            )
        else:
            cells += f"{'n/a':>{width}}{'n/a':>10}"
    if _is_complete(result):
        return cells + f"{result.reduction_pct:>12.2f}"
    return cells + f"{'n/a':>12}"


def format_comparison_table(
    results: Sequence[ComparisonResult],
    title: str = "Considering Execution Probabilities",
) -> str:
    """The Tables-1/2 layout: example, power/CPU per policy, reduction.

    The example column is as wide as its longest label, and at least 14
    characters.  One-sided rows render ``n/a`` and stay out of the
    average.
    """
    labels = [f"{result.example} ({result.modes})" for result in results]
    width = max([14] + [len(label) for label in labels])
    header = (
        f"{'Example':<{width}}{'P w/o Ψ (mW)':>14}{'CPU (s)':>10}"
        f"{'P with Ψ (mW)':>15}{'CPU (s)':>10}{'Reduc. (%)':>12}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for label, result in zip(labels, results):
        lines.append(f"{label:<{width}}" + _comparison_cells(result))
    reductions = [r.reduction_pct for r in results if _is_complete(r)]
    if reductions:
        lines.append("-" * len(header))
        lines.append(
            f"{'average':<{width}}{'':>14}{'':>10}{'':>15}{'':>10}"
            f"{statistics.mean(reductions):>12.2f}"
        )
    return "\n".join(lines)


def format_paper_comparison(
    results: Sequence[ComparisonResult],
    paper_rows: Dict[str, PaperRow],
    title: str = "Reproduction vs paper",
) -> str:
    """Reduction-percent comparison against the published rows.

    Absolute powers are not comparable (our instances are regenerated),
    so the side-by-side focuses on the quantity the paper's claim rests
    on: the relative reduction from considering probabilities.
    """
    header = (
        f"{'Example':<10}{'paper reduc. (%)':>18}{'ours reduc. (%)':>18}"
        f"{'paper P-ratio':>15}{'ours P-ratio':>15}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    ours_reductions: List[float] = []
    paper_reductions: List[float] = []
    for result in results:
        row = paper_rows.get(result.example)
        if row is None:
            continue
        paper_ratio = row.power_with_mw / row.power_without_mw
        ours_ratio = (
            result.with_probabilities.mean_power
            / result.without.mean_power
        )
        ours_reductions.append(result.reduction_pct)
        paper_reductions.append(row.reduction_pct)
        lines.append(
            f"{result.example:<10}{row.reduction_pct:>18.2f}"
            f"{result.reduction_pct:>18.2f}"
            f"{paper_ratio:>15.3f}{ours_ratio:>15.3f}"
        )
    if ours_reductions:
        lines.append("-" * len(header))
        lines.append(
            f"{'average':<10}{statistics.mean(paper_reductions):>18.2f}"
            f"{statistics.mean(ours_reductions):>18.2f}{'':>15}{'':>15}"
        )
    return "\n".join(lines)


def format_smartphone_table(
    results: Dict[str, ComparisonResult],
    title: str = "Results of Smart Phone Experiments",
) -> str:
    """The Table-3 layout (two rows: w/o DVS, with DVS)."""
    header = (
        f"{'Smart phone':<12}{'P w/o Ψ (mW)':>14}{'CPU (s)':>10}"
        f"{'P with Ψ (mW)':>15}{'CPU (s)':>10}{'Reduc. (%)':>12}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for label in ("w/o DVS", "with DVS"):
        result = results.get(label)
        if result is None:
            continue
        lines.append(f"{label:<12}" + _comparison_cells(result))
    both = [results.get("w/o DVS"), results.get("with DVS")]
    if all(both):
        overall = 100.0 * (
            1.0
            - both[1].with_probabilities.mean_power
            / both[0].without.mean_power
        )
        lines.append("-" * len(header))
        lines.append(
            f"overall reduction (fixed voltage, no Ψ  →  DVS + Ψ): "
            f"{overall:.1f}%"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Re-aggregation from the campaign event stream
# ----------------------------------------------------------------------


def results_from_events(
    events: Union[str, pathlib.Path, Iterable[Mapping[str, Any]]],
    spec: Optional[CampaignSpec] = None,
) -> List[ComparisonResult]:
    """Rebuild Table-1/2/3 aggregates from ``job_finished`` events.

    ``events`` is either a path to an ``events.jsonl`` stream or an
    already-loaded event sequence.  The ``job_finished`` events go
    through :func:`~repro.analysis.experiments.comparison_rows`, the
    fold the live experiment drivers use: one row per (instance, DVS
    method), in ``spec``'s order when the campaign's spec is given,
    else in first-appearance order.  When a campaign swept several DVS
    methods, the row label carries the method
    (``"smartphone [gradient]"``) so the rows stay distinguishable.  A
    segment of an unknown stream version is a
    :class:`~repro.errors.CampaignError`.
    """
    from repro.runtime.events import check_segment_version, iter_events

    if isinstance(events, (str, pathlib.Path)):
        events = iter_events(events)
    finished = []
    for event in events:
        if event.get("event") == "campaign_started":
            check_segment_version(event)
        elif event.get("event") == "job_finished":
            finished.append(event)
    rows = comparison_rows(finished, spec)
    if len({dvs for _, dvs in rows}) > 1:
        for (instance, dvs), row in rows.items():
            row.example = f"{instance} [{dvs}]"
    return list(rows.values())
