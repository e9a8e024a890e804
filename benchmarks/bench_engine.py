"""Evaluation-engine benchmark: seed path vs the engine vs its pools.

Runs the same GA synthesis (same seed, same sizing) under five engine
configurations and verifies they are *bit-identical* before reporting
wall-clock speedups:

``legacy``
    The seed evaluator (``tests/oracles/seed_evaluator.py``) swapped
    in for the whole run at ``jobs=1``: recompute-per-candidate
    decoding, no per-mode cache and the seed PV-DVS implementation —
    the baseline all speedups are measured against.
``vector``
    The default evaluator at ``jobs=1``: the staged per-mode pipeline
    (:mod:`repro.eval`) on the shared
    :class:`~repro.engine.decode_cache.DecodeContext`, serving clean
    modes from the bounded :class:`~repro.eval.cache.ModeResultCache`
    (emptied before every timed run, so the measured advantage is
    purely intra-run), with the struct-of-arrays PV-DVS kernels of
    :mod:`repro.dvs.pv_dvs`.
``engine+pool``
    ``vector`` plus ``jobs=N, async_pool=False`` — each generation's
    unique uncached genomes dispatched to the per-generation *barrier*
    pool.
``async``
    ``vector`` plus ``jobs=N, async_pool=True`` — the work-stealing
    asynchronous pool (:mod:`repro.engine.async_pool`): workers pull
    single genomes from a shared task queue and publish their
    mode-cache insertions to every other worker, so the parallel hit
    rate tracks the serial one instead of degrading after fork.
    Reported alongside its mean pool utilisation (busy time over the
    dispatch-window capacity) and parallel mode-cache hit rate.
``speculative``
    ``async`` plus ``speculative=True`` — the async pool additionally
    evaluates *predicted* next-generation genomes during the parent's
    breeding window (:mod:`repro.synthesis.speculation`).  The earlier
    pool arms pin ``speculative=False``, so the lift in pool
    utilisation (and wall clock) over ``async`` is speculation's own
    contribution.  On a single-core host the breeding window has no
    idle worker to fill, so the lift gate auto-skips there.

The *headline* cases run the gradient PV-DVS inner loop — the paper's
proposed technique and by far the hottest decode phase; no-DVS cases
are reported as a secondary (smaller) aggregate.  Results are written
to ``BENCH_engine.json`` together with each case's mode-cache hit
rate; ``--check BASELINE`` compares the headline speedup against a
committed baseline and fails on a >20 % regression (speedup ratios are
machine-relative, so the check is portable).

Usage::

    python benchmarks/bench_engine.py                  # full suite
    python benchmarks/bench_engine.py --quick          # smoke subset
    python benchmarks/bench_engine.py --jobs 8
    python benchmarks/bench_engine.py --quick \
        --check benchmarks/results/bench_engine_quick_baseline.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
import time
from typing import Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for the tests.oracles baseline

from repro.benchgen.multimode import (  # noqa: E402
    MultiModeSpec,
    generate_problem,
)
from repro.benchgen.smartphone import smartphone_problem  # noqa: E402
from repro.benchgen.suite import suite_problem  # noqa: E402
from repro.problem import Problem  # noqa: E402
from repro.synthesis.config import DvsMethod, SynthesisConfig  # noqa: E402
from repro.synthesis.cosynthesis import (  # noqa: E402
    MultiModeSynthesizer,
    SynthesisResult,
)
from tests.oracles import seed_path  # noqa: E402


#: Denser-than-suite instances for the pool arms: more queue depth and
#: cache-publication volume per generation than mul1–mul8, yet small
#: enough to GA-synthesise end to end (the registry's full ``stress1``
#: / ``stress2`` tier is sized for per-call kernel benches, not whole
#: synthesis runs — see ``benchmarks/bench_dvs.py``).
MINI_STRESS_SPECS = {
    "stress-mini": MultiModeSpec(
        name="stress-mini",
        seed=777,
        mode_tasks=(26, 30, 24, 28),
        pe_count=4,
        cl_count=2,
    ),
}


def _load_problem(name: str) -> Problem:
    if name == "smartphone":
        return smartphone_problem()
    if name in MINI_STRESS_SPECS:
        return generate_problem(MINI_STRESS_SPECS[name])
    return suite_problem(name)


def _base_config(dvs: DvsMethod, seed: int, quick: bool) -> SynthesisConfig:
    if quick:
        return SynthesisConfig(
            dvs=dvs,
            seed=seed,
            population_size=16,
            max_generations=15,
            convergence_generations=6,
            local_search_budget_factor=0.5,
        )
    return SynthesisConfig(
        dvs=dvs,
        seed=seed,
        population_size=32,
        max_generations=60,
        convergence_generations=15,
        local_search_budget_factor=1.0,
    )


def _run_once(problem: Problem, config: SynthesisConfig) -> SynthesisResult:
    # All configurations share one Problem (and thus its memoised
    # per-mode result cache); start every timed run cold so the
    # cached arms' advantage is intra-run, not leftovers from the
    # previous arm or repeat.
    cache = getattr(problem, "_mode_result_cache", None)
    if cache is not None:
        cache.clear()
    return MultiModeSynthesizer(problem, config).run()


def _timed_interleaved(
    problem: Problem, configs: Dict[str, SynthesisConfig], repeats: int
):
    """Best-of-N wall clock per config, measured round-robin.

    min-of-N suppresses scheduler/load noise (every measurement above
    the minimum is the same work plus interference), and interleaving
    the configurations within each repeat keeps slow load drift from
    skewing one configuration's timings relative to the others'.
    Results are deterministic across repeats.  The ``legacy`` arm runs
    with the seed evaluator swapped in (``tests.oracles.seed_path``).
    """
    times = {key: math.inf for key in configs}
    results = {}
    for _ in range(max(1, repeats)):
        for key, config in configs.items():
            started = time.perf_counter()
            if key == "legacy":
                with seed_path():
                    results[key] = _run_once(problem, config)
            else:
                results[key] = _run_once(problem, config)
            elapsed = time.perf_counter() - started
            if elapsed < times[key]:
                times[key] = elapsed
    return times, results


def run_case(
    name: str,
    dvs: DvsMethod,
    jobs: int,
    seed: int,
    quick: bool,
    headline: bool,
    repeats: int,
) -> Dict[str, object]:
    problem = _load_problem(name)
    base = _base_config(dvs, seed, quick)

    times, results = _timed_interleaved(
        problem,
        {
            "legacy": base.with_updates(jobs=1),
            "vector": base.with_updates(jobs=1),
            "pool": base.with_updates(
                jobs=jobs, async_pool=False, speculative=False
            ),
            "async": base.with_updates(
                jobs=jobs, async_pool=True, speculative=False
            ),
            "speculative": base.with_updates(
                jobs=jobs, async_pool=True, speculative=True
            ),
        },
        repeats,
    )
    legacy_s, vector_s, pool_s, async_s, spec_s = (
        times["legacy"],
        times["vector"],
        times["pool"],
        times["async"],
        times["speculative"],
    )
    legacy, vectored, pooled, asynced, speculated = (
        results["legacy"],
        results["vector"],
        results["pool"],
        results["async"],
        results["speculative"],
    )

    identical = (
        legacy.best.metrics.fitness
        == vectored.best.metrics.fitness
        == pooled.best.metrics.fitness
        == asynced.best.metrics.fitness
        == speculated.best.metrics.fitness
        and legacy.history
        == vectored.history
        == pooled.history
        == asynced.history
        == speculated.history
        and legacy.evaluations
        == vectored.evaluations
        == pooled.evaluations
        == asynced.evaluations
        == speculated.evaluations
    )
    perf = pooled.perf
    async_perf = asynced.perf
    spec_perf = speculated.perf
    inc_perf = vectored.perf
    case: Dict[str, object] = {
        "name": name,
        "dvs": dvs.value,
        "headline": headline,
        "identical": identical,
        "best_fitness": legacy.best.metrics.fitness,
        "evaluations": legacy.evaluations,
        "legacy_seconds": round(legacy_s, 4),
        "engine_vector_seconds": round(vector_s, 4),
        "engine_parallel_seconds": round(pool_s, 4),
        # The default evaluator vs the seed path, both at jobs=1: the
        # decode context, the mode-result cache and the PV-DVS kernels
        # together (see bench_dvs.py for the kernels in isolation).
        "speedup_vector_vs_legacy": round(legacy_s / vector_s, 4),
        "speedup_parallel": round(legacy_s / pool_s, 4),
        "engine_async_seconds": round(async_s, 4),
        # Work-stealing async pool vs the jobs=1 vector arm — the
        # async pool's own contribution.
        "speedup_async": round(vector_s / async_s, 4),
        "speedup_async_vs_legacy": round(legacy_s / async_s, 4),
        "async_pool_utilisation": (
            round(async_perf.pool_utilisation, 4)
            if async_perf is not None
            else None
        ),
        "async_pool_steals": (
            async_perf.pool_steals if async_perf is not None else None
        ),
        "async_mode_cache_hit_rate": (
            round(async_perf.mode_cache_hit_rate, 4)
            if async_perf is not None
            else None
        ),
        "engine_speculative_seconds": round(spec_s, 4),
        # Speculation's own contribution: the async pool with the
        # breeding window filled by predicted evaluations vs the same
        # pool idling through it.
        "speedup_speculative": round(async_s / spec_s, 4),
        "speedup_speculative_vs_legacy": round(legacy_s / spec_s, 4),
        "speculative_pool_utilisation": (
            round(spec_perf.pool_utilisation, 4)
            if spec_perf is not None
            else None
        ),
        "speculation_issued": (
            spec_perf.speculation_issued if spec_perf is not None else None
        ),
        "speculation_hits": (
            spec_perf.speculation_hits if spec_perf is not None else None
        ),
        "speculation_discards": (
            spec_perf.speculation_discards if spec_perf is not None else None
        ),
        "speculation_hit_rate": (
            round(spec_perf.speculation_hit_rate, 4)
            if spec_perf is not None
            else None
        ),
        "mode_cache_hit_rate": (
            round(inc_perf.mode_cache_hit_rate, 4)
            if inc_perf is not None
            else None
        ),
        "mode_cache_hits": (
            inc_perf.mode_cache_hits if inc_perf is not None else None
        ),
        "mode_cache_misses": (
            inc_perf.mode_cache_misses if inc_perf is not None else None
        ),
        "perf_parallel": perf.to_dict() if perf is not None else None,
        "perf_async": (
            async_perf.to_dict() if async_perf is not None else None
        ),
        "perf_speculative": (
            spec_perf.to_dict() if spec_perf is not None else None
        ),
    }
    return case


def _geomean(values: List[float]) -> Optional[float]:
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def build_report(args: argparse.Namespace) -> Dict[str, object]:
    repeats = args.repeats
    if repeats is None:
        repeats = 1 if args.quick else 3
    if args.quick:
        cases_spec = [
            ("mul1", DvsMethod.GRADIENT, True),
            ("mul1", DvsMethod.NONE, False),
        ]
    else:
        cases_spec = [
            ("mul1", DvsMethod.GRADIENT, True),
            ("mul2", DvsMethod.GRADIENT, True),
            ("mul3", DvsMethod.GRADIENT, True),
            ("mul4", DvsMethod.GRADIENT, True),
            ("mul5", DvsMethod.GRADIENT, True),
            ("mul6", DvsMethod.GRADIENT, True),
            ("mul7", DvsMethod.GRADIENT, True),
            ("mul8", DvsMethod.GRADIENT, True),
            ("mul3", DvsMethod.NONE, False),
            ("smartphone", DvsMethod.GRADIENT, False),
            ("stress-mini", DvsMethod.GRADIENT, True),
        ]

    cases = []
    for name, dvs, headline in cases_spec:
        label = f"{name}/{dvs.value}"
        print(f"[bench_engine] running {label} ...", flush=True)
        case = run_case(
            name, dvs, args.jobs, args.seed, args.quick, headline, repeats
        )
        cases.append(case)
        print(
            f"[bench_engine]   legacy {case['legacy_seconds']:.2f}s, "
            f"vector {case['engine_vector_seconds']:.2f}s "
            f"({case['speedup_vector_vs_legacy']:.2f}x, "
            f"hit rate {case['mode_cache_hit_rate']}), "
            f"engine+pool {case['engine_parallel_seconds']:.2f}s "
            f"({case['speedup_parallel']:.2f}x), "
            f"async {case['engine_async_seconds']:.2f}s "
            f"({case['speedup_async']:.2f}x vs vector, "
            f"utilisation {case['async_pool_utilisation']}, "
            f"{case['async_pool_steals']} steals), "
            f"speculative {case['engine_speculative_seconds']:.2f}s "
            f"({case['speedup_speculative']:.2f}x vs async, "
            f"utilisation {case['speculative_pool_utilisation']}, "
            f"{case['speculation_hits']}/{case['speculation_issued']} "
            f"hits), "
            f"identical={case['identical']}",
            flush=True,
        )

    headline_parallel = [
        c["speedup_parallel"] for c in cases if c["headline"]
    ]
    headline_vector = [
        c["speedup_vector_vs_legacy"] for c in cases if c["headline"]
    ]
    headline_async = [c["speedup_async"] for c in cases if c["headline"]]
    headline_speculative = [
        c["speedup_speculative"] for c in cases if c["headline"]
    ]
    utilisations = [
        c["async_pool_utilisation"]
        for c in cases
        if c["async_pool_utilisation"] is not None
    ]
    spec_utilisations = [
        c["speculative_pool_utilisation"]
        for c in cases
        if c["speculative_pool_utilisation"] is not None
    ]
    spec_issued = sum(c["speculation_issued"] or 0 for c in cases)
    spec_hits = sum(c["speculation_hits"] or 0 for c in cases)
    hit_rate_deltas = [
        abs(c["async_mode_cache_hit_rate"] - c["mode_cache_hit_rate"])
        for c in cases
        if c["async_mode_cache_hit_rate"] is not None
        and c["mode_cache_hit_rate"] is not None
    ]
    aggregate = {
        "headline_geomean_speedup_parallel": _geomean(headline_parallel),
        "headline_geomean_speedup_vector_vs_legacy": _geomean(
            headline_vector
        ),
        "headline_geomean_speedup_async": _geomean(headline_async),
        "all_geomean_speedup_parallel": _geomean(
            [c["speedup_parallel"] for c in cases]
        ),
        "all_geomean_speedup_async": _geomean(
            [c["speedup_async"] for c in cases]
        ),
        "mean_async_pool_utilisation": (
            sum(utilisations) / len(utilisations) if utilisations else None
        ),
        "headline_geomean_speedup_speculative": _geomean(
            headline_speculative
        ),
        "mean_speculative_pool_utilisation": (
            sum(spec_utilisations) / len(spec_utilisations)
            if spec_utilisations
            else None
        ),
        "speculation_issued": spec_issued,
        "speculation_hits": spec_hits,
        "speculation_hit_rate": (
            spec_hits / spec_issued if spec_issued else None
        ),
        # Worst-case |async − serial| mode-cache hit-rate gap: the
        # cross-worker publication protocol should keep the parallel
        # hit rate tracking the serial one (≤ 0.05 in acceptance).
        "max_async_mode_cache_hit_rate_delta": (
            max(hit_rate_deltas) if hit_rate_deltas else None
        ),
        "headline_mean_mode_cache_hit_rate": (
            sum(
                c["mode_cache_hit_rate"]
                for c in cases
                if c["headline"] and c["mode_cache_hit_rate"] is not None
            )
            / max(
                1,
                sum(
                    1
                    for c in cases
                    if c["headline"]
                    and c["mode_cache_hit_rate"] is not None
                ),
            )
        ),
        "all_identical": all(c["identical"] for c in cases),
    }
    return {
        "benchmark": "engine",
        "quick": args.quick,
        "jobs": args.jobs,
        "seed": args.seed,
        "repeats": repeats,
        "cases": cases,
        "aggregate": aggregate,
    }


def resolve_utilisation_floor(value: str, jobs: int) -> Optional[float]:
    """Turn ``--min-async-utilisation`` into a numeric floor.

    ``"auto"`` derives the floor from how much hardware parallelism the
    host can actually give ``jobs`` workers: with at least one core per
    worker the historical 0.85 floor applies unchanged; on smaller
    hosts (CI containers are often single-core) the workers time-share
    cores, the dispatch-window capacity ``window × jobs`` overstates
    what the host can deliver by ``jobs / cpus``, and the floor scales
    down accordingly — clamped to 0.25 so a pathological pool still
    fails.  A numeric string is used as-is; ``"off"`` disables the
    gate.
    """
    if value == "off":
        return None
    if value == "auto":
        cpus = os.cpu_count() or 1
        if cpus >= jobs:
            return 0.85
        return max(0.25, round(0.85 * cpus / jobs, 2))
    return float(value)


def check_regression(
    report: Dict[str, object], baseline_path: pathlib.Path
) -> int:
    """Compare headline speedup against a committed baseline (>20 % fails)."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    key = "headline_geomean_speedup_parallel"
    current = report["aggregate"][key]
    reference = baseline["aggregate"][key]
    floor = reference * 0.8
    print(
        f"[bench_engine] regression check: current {current:.3f}x vs "
        f"baseline {reference:.3f}x (floor {floor:.3f}x)"
    )
    if not report["aggregate"]["all_identical"]:
        print("[bench_engine] FAIL: engine results diverged from legacy")
        return 1
    if current < floor:
        print(
            f"[bench_engine] FAIL: headline speedup regressed by more "
            f"than 20% ({current:.3f}x < {floor:.3f}x)"
        )
        return 1
    print("[bench_engine] regression check passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small smoke subset (used by 'make bench-smoke')",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="pool size for the engine+pool and async configurations",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help=(
            "wall-clock measurements per configuration, best-of-N "
            "interleaved (default: 3 full, 1 quick)"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "output JSON path (default: BENCH_engine.json at the repo "
            "root, or bench_engine_quick.json under benchmarks/results "
            "with --quick)"
        ),
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="baseline JSON to compare against; exits 1 on >20%% regression",
    )
    parser.add_argument(
        "--min-async-utilisation",
        default=None,
        metavar="FRACTION",
        help=(
            "fail (exit 1) when the mean async pool utilisation falls "
            "below this fraction; 'auto' derives the floor from "
            "os.cpu_count() vs --jobs (used by 'make bench-smoke'), "
            "'off' disables the gate"
        ),
    )
    args = parser.parse_args(argv)

    report = build_report(args)

    if args.out is None:
        if args.quick:
            out_path = (
                REPO_ROOT / "benchmarks" / "results" / "bench_engine_quick.json"
            )
        else:
            out_path = REPO_ROOT / "BENCH_engine.json"
    else:
        out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    agg = report["aggregate"]
    print(
        f"[bench_engine] headline geomean: "
        f"{agg['headline_geomean_speedup_parallel']:.2f}x (pool), "
        f"{agg['headline_geomean_speedup_vector_vs_legacy']:.2f}x "
        f"(jobs=1 engine, mean hit rate "
        f"{agg['headline_mean_mode_cache_hit_rate']:.2f}), "
        f"{agg['headline_geomean_speedup_async']:.2f}x "
        f"(async pool vs vector, mean utilisation "
        f"{agg['mean_async_pool_utilisation']}), "
        f"{agg['headline_geomean_speedup_speculative']:.2f}x "
        f"(speculative vs async, mean utilisation "
        f"{agg['mean_speculative_pool_utilisation']}, hit rate "
        f"{agg['speculation_hit_rate']}); "
        f"report written to {out_path}"
    )

    if not agg["all_identical"]:
        print("[bench_engine] FAIL: engine results diverged from legacy")
        return 1
    if args.min_async_utilisation is not None:
        floor = resolve_utilisation_floor(
            args.min_async_utilisation, args.jobs
        )
        if floor is not None:
            utilisation = agg["mean_async_pool_utilisation"]
            if utilisation is None or utilisation < floor:
                print(
                    f"[bench_engine] FAIL: mean async pool utilisation "
                    f"{utilisation} below floor {floor}"
                )
                return 1
            print(
                f"[bench_engine] async utilisation gate passed "
                f"({utilisation:.3f} >= {floor})"
            )
            # Speculation fills the breeding window with predicted
            # evaluations, so its pool utilisation must not fall below
            # the non-speculative async arm's (small tolerance for
            # timing noise).  Meaningless without a second core to do
            # the filling — time-shared workers only displace the
            # parent — so single-core hosts skip the gate.
            if (os.cpu_count() or 1) > 1:
                spec_util = agg["mean_speculative_pool_utilisation"]
                async_util = agg["mean_async_pool_utilisation"]
                if spec_util is None or spec_util < async_util - 0.02:
                    print(
                        f"[bench_engine] FAIL: speculative pool "
                        f"utilisation {spec_util} below async "
                        f"{async_util} - 0.02"
                    )
                    return 1
                print(
                    f"[bench_engine] speculation lift gate passed "
                    f"({spec_util:.3f} vs async {async_util:.3f})"
                )
            else:
                print(
                    "[bench_engine] speculation lift gate skipped "
                    "(single-core host)"
                )
    if args.check is not None:
        return check_regression(report, pathlib.Path(args.check))
    return 0


if __name__ == "__main__":
    sys.exit(main())
