"""PV-DVS kernel microbench: the seed implementation vs the array kernels.

Times the gradient descent in isolation — no GA, no mode cache — over
a fixed-seed corpus of random-mapping schedules per instance, so the
kernel's own speedup is visible without the engine's other phases
diluting it.  Two arms per case:

``legacy``
    ``reference_scale_schedule`` — the seed's dict-based descent, kept
    frozen in ``tests/oracles/pv_dvs_reference.py``.
``vector``
    :func:`repro.dvs.pv_dvs.scale_schedule` — the struct-of-arrays
    kernels.  Asserted bit-identical to ``legacy`` on every corpus
    entry before timing.

Every corpus entry also checks the kernels' uniform baseline
(:func:`repro.dvs.pv_dvs.uniform_scale_schedule`) for bit-identity
with the seed's ``reference_uniform_scale_schedule`` (not timed).

Cases span the paper-scale gradient suite (where fixed per-call
overhead dominates) and the ``stress1``/``stress2`` tier (200+ tasks
per mode — where the kernels' asymptotic advantage shows).  Results
are written to ``benchmarks/results/bench_dvs.json``; ``--quick`` runs
a two-case smoke subset (used by ``make bench-smoke``), writes it to
the git-ignored ``benchmarks/out/bench_dvs_quick.json`` and fails on
any identity violation.

Usage::

    python benchmarks/bench_dvs.py            # full corpus
    python benchmarks/bench_dvs.py --quick    # smoke subset
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import random
import sys
import time
from typing import Dict, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for the tests.oracles reference

from repro.benchgen import registry  # noqa: E402
from repro.dvs.pv_dvs import (  # noqa: E402
    scale_schedule,
    uniform_scale_schedule,
)
from repro.engine.decode_cache import context_for  # noqa: E402
from repro.mapping.cores import allocate_cores  # noqa: E402
from repro.mapping.encoding import MappingString  # noqa: E402
from repro.problem import Problem  # noqa: E402
from repro.scheduling.list_scheduler import schedule_mode  # noqa: E402
from tests.oracles.pv_dvs_reference import (  # noqa: E402
    reference_scale_schedule,
    reference_uniform_scale_schedule,
)

#: (instance, corpus genomes full, corpus genomes quick)
CASES: Tuple[Tuple[str, int, int], ...] = (
    ("mul1", 25, 4),
    ("mul3", 20, 0),
    ("mul8", 15, 0),
    ("smartphone", 20, 0),
    ("stress1", 3, 1),
    ("stress2", 2, 0),
)


def _corpus(problem: Problem, genomes: int, seed: int):
    """Fixed-seed random-mapping schedules across all modes."""
    rng = random.Random(seed)
    cases = []
    for _ in range(genomes):
        genome = MappingString.random(problem, rng)
        try:
            cores = allocate_cores(problem, genome)
        except Exception:
            continue
        for mode in problem.omsm.modes:
            try:
                schedule = schedule_mode(
                    problem, mode, genome.mode_mapping(mode.name), cores
                )
            except Exception:
                continue
            cases.append((mode, schedule))
    return cases


def _identical(a, b) -> bool:
    return (
        len(a.tasks) == len(b.tasks)
        and len(a.comms) == len(b.comms)
        and all(x == y for x, y in zip(a.tasks, b.tasks))
        and all(x == y for x, y in zip(a.comms, b.comms))
    )


def run_case(
    name: str, genomes: int, seed: int, repeats: int
) -> Dict[str, object]:
    problem = registry.get(name)
    context = context_for(problem)
    corpus = _corpus(problem, genomes, seed)

    identical = True
    uniform_identical = True
    for mode, schedule in corpus:
        legacy = reference_scale_schedule(problem, mode, schedule)
        vector = scale_schedule(problem, mode, schedule, context=context)
        if not _identical(legacy, vector):
            identical = False
        reference_uniform = reference_uniform_scale_schedule(
            problem, mode, schedule
        )
        uniform = uniform_scale_schedule(
            problem, mode, schedule, context=context
        )
        if not _identical(reference_uniform, uniform):
            uniform_identical = False

    def timed(scale, **kwargs) -> float:
        best = math.inf
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            for mode, schedule in corpus:
                scale(problem, mode, schedule, **kwargs)
            elapsed = time.perf_counter() - started
            if elapsed < best:
                best = elapsed
        return best / len(corpus)

    legacy_us = timed(reference_scale_schedule) * 1e6
    vector_us = timed(scale_schedule, context=context) * 1e6
    return {
        "name": name,
        "corpus_calls": len(corpus),
        "identical": identical,
        "uniform_identical": uniform_identical,
        "legacy_us_per_call": round(legacy_us, 2),
        "vector_us_per_call": round(vector_us, 2),
        "speedup_vector": round(legacy_us / vector_us, 4),
    }


def _geomean(values: List[float]) -> Optional[float]:
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="two-case smoke subset (used by 'make bench-smoke')",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats, best-of-N (default: 3 full, 1 quick)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "output JSON path (default: benchmarks/results/"
            "bench_dvs.json, or the git-ignored benchmarks/out/"
            "bench_dvs_quick.json with --quick)"
        ),
    )
    args = parser.parse_args(argv)
    repeats = args.repeats
    if repeats is None:
        repeats = 1 if args.quick else 3

    cases = []
    for name, full, quick in CASES:
        genomes = quick if args.quick else full
        if not genomes:
            continue
        print(f"[bench_dvs] running {name} ...", flush=True)
        case = run_case(name, genomes, args.seed, repeats)
        cases.append(case)
        print(
            f"[bench_dvs]   legacy {case['legacy_us_per_call']:.0f}us, "
            f"vector {case['vector_us_per_call']:.0f}us "
            f"({case['speedup_vector']:.2f}x), "
            f"identical={case['identical']}, "
            f"uniform_identical={case['uniform_identical']}",
            flush=True,
        )

    report = {
        "benchmark": "dvs",
        "quick": args.quick,
        "seed": args.seed,
        "repeats": repeats,
        "cases": cases,
        "aggregate": {
            "geomean_speedup_vector": _geomean(
                [c["speedup_vector"] for c in cases]
            ),
            "all_identical": all(c["identical"] for c in cases),
            "all_uniform_identical": all(
                c["uniform_identical"] for c in cases
            ),
        },
    }
    if args.out is None:
        if args.quick:
            out_path = REPO_ROOT / "benchmarks" / "out" / "bench_dvs_quick.json"
        else:
            out_path = REPO_ROOT / "benchmarks" / "results" / "bench_dvs.json"
    else:
        out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    aggregate = report["aggregate"]
    print(
        f"[bench_dvs] geomean vector speedup "
        f"{aggregate['geomean_speedup_vector']:.2f}x; report written to "
        f"{out_path}"
    )
    if not aggregate["all_identical"]:
        print("[bench_dvs] FAIL: vector kernels diverged from legacy")
        return 1
    if not aggregate["all_uniform_identical"]:
        print(
            "[bench_dvs] FAIL: uniform kernels diverged from the "
            "reference"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
