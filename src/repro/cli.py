"""Command-line interface: run the paper's experiments from a shell.

Examples::

    repro-mm table1                      # Table 1 (no DVS), all instances
    repro-mm table2 --runs 3 --only mul6 mul7
    repro-mm table3 --runs 2             # smart phone, both rows
    repro-mm synthesize mul5 --dvs gradient --probabilities
    repro-mm inspect smartphone          # print a problem's structure
    repro-mm problems                    # list registered instances
    repro-mm campaign spec.json --out runs/t1   # resumable campaign
    repro-mm campaign --resume runs/t1          # continue after a kill
    repro-mm campaign --report runs/t1          # tables from events only
    repro-mm campaign --status runs/t1          # progress + ETA snapshot
    repro-mm campaign --tail runs/t1            # follow the event stream

The module is also runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import math
import os
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.experiments import (
    ComparisonResult,
    run_smartphone_experiment,
    run_suite_experiment,
)
from repro.analysis.paper_data import TABLE1, TABLE2
from repro.analysis.reporting import (
    format_comparison_table,
    format_paper_comparison,
    format_smartphone_table,
    results_from_events,
)
from repro.benchgen import registry
from repro.benchgen.suite import SUITE_SPECS
from repro.errors import CampaignError
from repro.obs.status import format_event
from repro.problem import Problem
from repro.runtime import (
    CampaignSpec,
    events_path,
    resume_campaign,
    run_campaign,
    spec_path,
)
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer


def _load_problem(name: str) -> Problem:
    """Resolve an instance name via the registry (exit 2 on unknown)."""
    try:
        return registry.get(name)
    except KeyError as exc:
        raise SystemExit(f"repro-mm: error: {exc.args[0]}") from None


def _config_from_args(args: argparse.Namespace) -> SynthesisConfig:
    """The GA options as a config.

    The table commands have no ``--dvs`` or ``--probabilities``; their
    campaigns set the DVS method, policy and seed per job.
    """
    return SynthesisConfig(
        use_probabilities=getattr(args, "probabilities", True),
        dvs=DvsMethod(getattr(args, "dvs", "none")),
        population_size=args.population,
        max_generations=args.generations,
        convergence_generations=args.convergence,
        jobs=args.jobs,
        seed=args.seed,
    )


def _add_ga_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--population", type=int, default=40, help="GA population size"
    )
    parser.add_argument(
        "--generations", type=int, default=120, help="generation limit"
    )
    parser.add_argument(
        "--convergence",
        type=int,
        default=20,
        help="stop after this many generations without improvement",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for population evaluation (1 = serial; "
            "results are identical for any job count)"
        ),
    )


def _cmd_table(args: argparse.Namespace, dvs: DvsMethod) -> int:
    results = run_suite_experiment(
        dvs=dvs,
        runs=args.runs,
        config=_config_from_args(args),
        examples=args.only or None,
        base_seed=args.seed,
    )
    table_number = "1" if dvs is DvsMethod.NONE else "2"
    title = (
        f"Table {table_number}: Considering Execution Probabilities "
        f"({'w/o' if dvs is DvsMethod.NONE else 'with'} DVS, "
        f"{args.runs} runs averaged)"
    )
    print(format_comparison_table(results, title))
    paper = TABLE1 if dvs is DvsMethod.NONE else TABLE2
    print()
    print(
        format_paper_comparison(
            results,
            {row.example: row for row in paper},
            title=f"Table {table_number} vs paper",
        )
    )
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    results = run_smartphone_experiment(
        runs=args.runs, config=_config_from_args(args), base_seed=args.seed
    )
    print(
        format_smartphone_table(
            results,
            title=(
                f"Table 3: Results of Smart Phone Experiments "
                f"({args.runs} runs averaged)"
            ),
        )
    )
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    problem = _load_problem(args.problem)
    config = _config_from_args(args)
    result = MultiModeSynthesizer(problem, config).run()
    print(result.best.summary())
    print(
        f"  generations: {result.generations}, evaluations: "
        f"{result.evaluations}, cpu time: {result.cpu_time:.1f} s"
    )
    if result.perf is not None:
        perf = result.perf
        print(
            f"  perf: {perf.evaluations_per_second:.0f} evals/s, "
            f"cache hit rate {perf.cache_hit_rate:.1%}, "
            f"jobs {perf.jobs}"
            + (
                f", pool utilisation {perf.pool_utilisation:.1%}"
                if perf.jobs > 1
                else ""
            )
        )
    if args.gantt:
        from repro.analysis.gantt import render_all_modes

        print()
        print(
            render_all_modes(
                result.best.schedules, problem.architecture
            )
        )
    if args.save_mapping:
        from repro.durable import atomic_write_json
        from repro.io import mapping_to_dict

        atomic_write_json(
            args.save_mapping,
            mapping_to_dict(result.best.mapping),
            indent=2,
            sort_keys=True,
        )
        print(f"  mapping written to {args.save_mapping}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    problem = _load_problem(args.problem)
    omsm = problem.omsm
    print(f"problem {problem.name!r}")
    print(f"  modes: {len(omsm)}, genes: {problem.genome_length()}")
    for mode in omsm.modes:
        graph = mode.task_graph
        print(
            f"    {mode.name}: Ψ={mode.probability:.3f} "
            f"φ={mode.period * 1e3:.1f} ms, {len(graph)} tasks, "
            f"{len(graph.edges)} edges, {len(graph.task_types())} types"
        )
    print(f"  shared task types: {sorted(omsm.shared_task_types())}")
    print("  architecture:")
    for pe in problem.architecture.pes:
        dvs = (
            f", DVS {pe.voltage_levels}" if pe.dvs_enabled else ""
        )
        area = f", area {pe.area:.0f}" if pe.is_hardware else ""
        print(
            f"    {pe.name}: {pe.kind.value}{area}, "
            f"P_stat {pe.static_power * 1e3:.2f} mW{dvs}"
        )
    for link in problem.architecture.links:
        print(
            f"    {link.name}: links {sorted(link.connects)}, "
            f"{link.bandwidth_bps / 1e6:.1f} Mbit/s"
        )
    print(f"  transitions: {len(omsm.transitions)}")
    return 0


#: Event kinds a live campaign prints as progress lines.
_PROGRESS_EVENTS = frozenset(
    {"campaign_started", "job_started", "job_finished", "job_failed", "job_skipped"}
)


def _say(text: str = "") -> None:
    """Print ``text`` now; once stdout's reader has gone, print nothing.

    A campaign prints from inside the runner's event callback, so a
    reader that exits early (``repro-mm campaign … | head -1``) must not
    raise there: the first broken pipe points stdout at the null device,
    and the campaign finishes with its stream and summary complete.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _print_progress(event: Dict[str, Any]) -> None:
    """One ``--tail`` line per job-level event."""
    if event.get("event") in _PROGRESS_EVENTS:
        _say(format_event(event))


def _campaign_rows(
    run_dir: Union[str, pathlib.Path],
) -> List[ComparisonResult]:
    """Report rows of a run directory, in its spec's order when it has one."""
    path = spec_path(run_dir)
    spec = CampaignSpec.load(path) if path.exists() else None
    return results_from_events(events_path(run_dir), spec=spec)


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.status is not None:
        from repro.obs import (
            campaign_status,
            format_pool_stats,
            format_status,
            load_run_summary,
        )

        try:
            print(format_status(campaign_status(args.status)))
        except CampaignError as exc:
            raise SystemExit(f"repro-mm: error: {exc}") from None
        # Pool figures come from the run summary when one exists; any
        # field an older summary lacks (pre-dispatch-window files, a
        # run that fell back to serial) renders as n/a, never a crash.
        try:
            summary = load_run_summary(args.status)
        except CampaignError:
            summary = None
        if summary is not None:
            print(format_pool_stats(summary))
        return 0
    if args.tail is not None:
        from repro.obs import tail_events

        try:
            for event in tail_events(
                events_path(args.tail), follow=not args.no_follow
            ):
                print(format_event(event), flush=True)
        except CampaignError as exc:
            raise SystemExit(f"repro-mm: error: {exc}") from None
        except KeyboardInterrupt:
            pass
        return 0
    if args.report is not None:
        try:
            results = _campaign_rows(args.report)
        except CampaignError as exc:
            raise SystemExit(f"repro-mm: error: {exc}") from None
        if not results:
            print("no finished jobs in the event stream yet")
            return 1
        print(
            format_comparison_table(
                results, title=f"Campaign report ({args.report})"
            )
        )
        return 0
    if args.init_spec is not None:
        template = CampaignSpec(
            name="example",
            instances=["mul9", "mul11"],
            dvs_methods=[DvsMethod.NONE],
            probability_settings=[False, True],
            runs=2,
            base_seed=400,
            config=SynthesisConfig(),
        )
        template.save(args.init_spec)
        print(f"template campaign spec written to {args.init_spec}")
        return 0
    on_event = None if args.quiet else _print_progress
    try:
        if args.resume is not None:
            outcome = resume_campaign(args.resume, on_event=on_event)
        else:
            if args.spec is None or args.out is None:
                raise SystemExit(
                    "repro-mm: error: campaign needs either SPEC --out DIR, "
                    "--resume DIR, --report DIR or --init-spec FILE"
                )
            spec = CampaignSpec.load(args.spec)
            outcome = run_campaign(spec, args.out, on_event=on_event)
    except CampaignError as exc:
        raise SystemExit(f"repro-mm: error: {exc}") from None
    _say(
        f"campaign done: {outcome.completed} jobs completed, "
        f"{outcome.failed} failed (run dir: {outcome.run_dir})"
    )
    results = _campaign_rows(outcome.run_dir)
    if results:
        _say()
        _say(
            format_comparison_table(
                results, title=f"Campaign {outcome.spec.name!r}"
            )
        )
    return 1 if outcome.failures else 0


def _cmd_problems(args: argparse.Namespace) -> int:
    """List every registry instance with its mode and gene counts."""
    names = registry.names()
    if not names:
        print("no problems registered")
        return 1
    rows = []
    for name in names:
        problem = registry.get(name)
        rows.append(
            (
                name,
                len(problem.omsm),
                problem.genome_length(),
                len(problem.architecture.pes),
            )
        )
    width = max(len(name) for name, *_ in rows)
    print(f"{'name':<{width}}  modes  genes  PEs")
    for name, modes, genes, pes in rows:
        print(f"{name:<{width}}  {modes:>5}  {genes:>5}  {pes:>3}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation.executor import simulate as run_simulation

    if not 0 < args.horizon < math.inf:
        # NaN fails both comparisons.
        raise SystemExit(
            f"repro-mm: error: --horizon must be a finite time > 0 s, "
            f"got {args.horizon!r}"
        )
    problem = _load_problem(args.problem)
    config = _config_from_args(args)
    result = MultiModeSynthesizer(problem, config).run()
    print(result.best.summary())
    print()
    report = run_simulation(
        result.best, horizon=args.horizon, seed=args.seed
    )
    print(report.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mm",
        description=(
            "Multi-mode co-synthesis experiments (DATE 2003 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for table, dvs in (("table1", DvsMethod.NONE), ("table2", None)):
        table_parser = sub.add_parser(
            table,
            help=f"reproduce {table} "
            + ("(no DVS)" if table == "table1" else "(with DVS)"),
        )
        table_parser.add_argument(
            "--runs", type=int, default=5, help="optimisation runs averaged"
        )
        table_parser.add_argument(
            "--only",
            nargs="*",
            choices=[spec.name for spec in SUITE_SPECS],
            help="restrict to these instances",
        )
        _add_ga_options(table_parser)

    table3 = sub.add_parser("table3", help="reproduce Table 3 (smart phone)")
    table3.add_argument("--runs", type=int, default=3)
    _add_ga_options(table3)

    instance_help = f"instance name: one of {', '.join(registry.names())}"

    synth = sub.add_parser("synthesize", help="synthesise one instance")
    synth.add_argument("problem", help=instance_help)
    synth.add_argument(
        "--dvs",
        choices=[m.value for m in DvsMethod],
        default="none",
        help="voltage scaling method",
    )
    synth.add_argument(
        "--probabilities",
        action="store_true",
        default=True,
        help="use true mode probabilities in the fitness (default)",
    )
    synth.add_argument(
        "--no-probabilities",
        dest="probabilities",
        action="store_false",
        help="probability-neglecting baseline",
    )
    synth.add_argument(
        "--gantt",
        action="store_true",
        help="print an ASCII Gantt chart of every mode's schedule",
    )
    synth.add_argument(
        "--save-mapping",
        metavar="FILE",
        default=None,
        help="write the best mapping to a JSON file",
    )
    _add_ga_options(synth)

    inspect = sub.add_parser("inspect", help="print a problem's structure")
    inspect.add_argument("problem", help=instance_help)

    sub.add_parser(
        "problems",
        help="list all registered benchmark instances with mode counts",
    )

    campaign = sub.add_parser(
        "campaign",
        help=(
            "run a declarative experiment campaign with durable "
            "checkpoints and a JSONL event stream"
        ),
    )
    campaign.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="campaign spec JSON (see docs/api.md for the format)",
    )
    campaign.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="run directory for checkpoints/results/events",
    )
    campaign.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help=(
            "continue the campaign stored in DIR: completed jobs are "
            "skipped, interrupted jobs resume from their latest "
            "checkpoint with bit-identical results (only the evaluation "
            "count may grow)"
        ),
    )
    campaign.add_argument(
        "--report",
        metavar="DIR",
        default=None,
        help=(
            "print the comparison table re-aggregated from DIR's "
            "events.jsonl, without running anything"
        ),
    )
    campaign.add_argument(
        "--init-spec",
        metavar="FILE",
        default=None,
        help="write a template campaign spec to FILE and exit",
    )
    campaign.add_argument(
        "--status",
        metavar="DIR",
        default=None,
        help=(
            "print a progress report for the campaign in DIR "
            "(completed/failed/running jobs, ETA) and exit"
        ),
    )
    campaign.add_argument(
        "--tail",
        metavar="DIR",
        default=None,
        help=(
            "follow DIR's events.jsonl live, one human-readable line "
            "per event; stops at campaign end (Ctrl-C to detach)"
        ),
    )
    campaign.add_argument(
        "--no-follow",
        action="store_true",
        help="with --tail: print the events already on disk and exit",
    )
    campaign.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-job progress lines",
    )

    simulate = sub.add_parser(
        "simulate",
        help=(
            "synthesise an instance, then validate Equation (1) by "
            "trace-driven simulation"
        ),
    )
    simulate.add_argument("problem", help=instance_help)
    simulate.add_argument(
        "--horizon",
        type=float,
        default=500.0,
        help="simulated operational time in seconds",
    )
    simulate.add_argument(
        "--dvs",
        choices=[m.value for m in DvsMethod],
        default="none",
    )
    simulate.add_argument(
        "--probabilities",
        action="store_true",
        default=True,
    )
    simulate.add_argument(
        "--no-probabilities",
        dest="probabilities",
        action="store_false",
    )
    _add_ga_options(simulate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        return _cmd_table(args, DvsMethod.NONE)
    if args.command == "table2":
        return _cmd_table(args, DvsMethod.GRADIENT)
    if args.command == "table3":
        return _cmd_table3(args)
    if args.command == "synthesize":
        return _cmd_synthesize(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "problems":
        return _cmd_problems(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
