"""Campaign workers against one worker, on the Tables 1–3 mini-campaign.

Runs the end-to-end benchmark's ``tables-mini`` spec (mul1–mul12 and
the smart phone × no DVS / gradient DVS × both probability policies,
one run each: 52 jobs) in alternating, repeated arms, each in a fresh
process so that its peak memory is its own:

``one``
    :func:`repro.runtime.runner.usable_cpus` patched to 1, so the jobs
    run in-process one after another, as on a one-CPU host.
``workers``
    the default: one campaign worker per usable CPU (``taskset`` caps
    it).

Per run it records the wall seconds of the whole campaign, evaluations
per wall second (nothing is excluded from the wall clock), CPU
milliseconds per evaluation of the parent and its workers
(``RUSAGE_SELF`` plus ``RUSAGE_CHILDREN``: the runner reaps every
worker before it returns) and the highest per-process peak RSS.  It
exits 1 unless every job's power, evaluations, generations, history
and best genes agree across every run.

Usage::

    python benchmarks/bench_campaign.py            # 3 repeats per arm
    python benchmarks/bench_campaign.py --quick    # smoke sizing, 1 each

A ``--quick`` campaign is about a second of work, most of it loading
instances, so its timings say little; it is the identity gate of
``make bench-smoke``.

The report goes to the git-ignored ``benchmarks/out/`` unless ``--out``
says otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))

from run import host_block, summarise  # noqa: E402

ARMS = ("one", "workers")
METRICS = ("wall_s", "evals_per_wall_s", "cpu_ms_per_eval", "peak_rss_mb")


def run_arm(arm: str, seed: int, smoke: bool) -> Dict[str, Any]:
    """One campaign of ``arm``, timed in this process."""
    from repro.runtime import runner
    from repro.runtime.events import events_path, read_events
    from workloads import tables_spec

    if arm == "one":
        runner.usable_cpus = lambda: 1

    def cpu_seconds() -> float:
        return sum(
            usage.ru_utime + usage.ru_stime
            for usage in (
                resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN),
            )
        )

    spec = tables_spec(seed, smoke)
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as run_dir:
        cpu = cpu_seconds()
        started = time.perf_counter()
        outcome = runner.CampaignRunner(spec, run_dir).run()
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu
        workers = read_events(events_path(run_dir))[0]["workers"]
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    evaluations = sum(r.evaluations for r in outcome.results.values())
    return {
        "arm": arm,
        "workers": workers,
        "failed": outcome.failed,
        "wall_s": wall,
        "evaluations": evaluations,
        "evals_per_wall_s": evaluations / wall,
        "cpu_ms_per_eval": 1e3 * cpu / max(1, evaluations),
        "peak_rss_mb": peak_kb / 1024.0,
        "jobs": {
            job_id: {
                "power": result.power,
                "evaluations": result.evaluations,
                "generations": result.generations,
                "history": result.history,
                "best_genes": result.best_genes,
            }
            for job_id, result in outcome.results.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke-sized GA, one run per arm")
    parser.add_argument("--repeats", type=int, default=None,
                        help="runs per arm (default 3, --quick 1)")
    parser.add_argument("--seed", type=int, default=401,
                        help="the campaign's base seed")
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "benchmarks" / "out"
                        / "bench_campaign.json")
    parser.add_argument("--arm", choices=ARMS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.arm is not None:  # one measured run, in its own process
        print(json.dumps(run_arm(args.arm, args.seed, args.quick)))
        return 0

    repeats = args.repeats or (1 if args.quick else 3)
    runs: List[Dict[str, Any]] = []
    for repeat in range(repeats):
        for arm in ARMS if repeat % 2 == 0 else ARMS[::-1]:
            command = [sys.executable, __file__, "--arm", arm,
                       "--seed", str(args.seed)]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, capture_output=True, text=True,
                                  check=True)
            run = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(run)
            print(f"{arm:>8} ({run['workers']} worker(s)): "
                  f"{run['wall_s']:.2f} s, "
                  f"{run['evals_per_wall_s']:.0f} evals/s, "
                  f"{run['cpu_ms_per_eval']:.3f} CPU ms/eval, "
                  f"{run['peak_rss_mb']:.1f} MB", flush=True)

    reference = runs[0]["jobs"]
    mismatched = sorted({
        job_id
        for run in runs
        for job_id in set(reference) | set(run["jobs"])
        if run["jobs"].get(job_id) != reference.get(job_id)
    })
    failed = sum(run["failed"] for run in runs)
    arms = {
        arm: {
            "workers": [r["workers"] for r in runs if r["arm"] == arm],
            **{
                metric: summarise([r[metric] for r in runs if r["arm"] == arm])
                for metric in METRICS
            },
        }
        for arm in ARMS
    }
    report = {
        "host": host_block(),
        "seed": args.seed,
        "quick": args.quick,
        "repeats": repeats,
        "identical": not mismatched,
        "mismatched_jobs": mismatched,
        "failed_jobs": failed,
        "arms": arms,
        "speedup_evals_per_wall_s": (
            arms["workers"]["evals_per_wall_s"]["median"]
            / arms["one"]["evals_per_wall_s"]["median"]
        ),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"workers / one, evals per wall second (medians): "
          f"{report['speedup_evals_per_wall_s']:.2f}x; report: {args.out}")
    if mismatched or failed:
        print(f"FAIL: {len(mismatched)} job(s) differ between runs, "
              f"{failed} failed: {mismatched[:5]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
