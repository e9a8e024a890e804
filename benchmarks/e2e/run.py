"""End-to-end benchmark: Table 3 smartphone, the jobs=2 pool, Tables 1–3.

One measured run, the form automated regression checks call::

    python3 benchmarks/e2e/run.py --workload phone-dvs --seed 3 \\
        --seconds 25 --trace 0

runs one workload for ``--seconds`` of wall clock and prints, as the
last line of standard output, ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.

The whole benchmark, every workload in a fresh process, repeats
interleaved, plus one traced run per workload::

    python3 benchmarks/e2e/run.py [--seed 400] [--repeats N] \\
        [--workload NAME ...] [--out DIR]

writes ``DIR/results.json`` (host, provenance, medians and quartiles)
and ``DIR/trace.json`` (Chrome trace events; open in Perfetto).
``--compare A.json B.json`` judges B against A with the bounds of
``BENCHMARK.json``; ``--make-reference`` regenerates ``reference.json``.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKDIR = HERE / ".work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCE_JSON = HERE / "reference.json"
WORKLOADS = ("phone-dvs", "phone-nodvs", "phone-dvs-jobs2", "tables-mini")
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 8
#: Speed probes before and after each set-up probe.
SPEED_PROBES = 5
#: Window of a ``--smoke`` harness run, in seconds.
SMOKE_SECONDS = 2


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src``, and nowhere else."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2e benchmark: no sources at {source}/repro")
    sys.path.insert(0, str(source))


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def declared_metrics(trace: bool) -> Dict[str, Dict[str, Any]]:
    """``name -> {unit, better[, bound]}`` as ``BENCHMARK.json`` declares."""
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry for entry in load_benchmark()[key]}


def _sizing(smoke: bool) -> str:
    return "smoke/" if smoke else "full/"


def load_reference(smoke: bool) -> Dict[str, Any]:
    """Fingerprints of one GA sizing, keyed without the sizing prefix."""
    prefix = _sizing(smoke)
    with open(REFERENCE_JSON) as handle:
        return {
            key[len(prefix):]: entry
            for key, entry in json.load(handle).items()
            if key.startswith(prefix)
        }


def write_reference(smoke: bool, entries: Dict[str, Any]) -> None:
    """Replace one sizing's fingerprints; one fingerprint per line."""
    prefix = _sizing(smoke)
    path = REFERENCE_JSON
    data = json.loads(path.read_text()) if path.exists() else {}
    data = {k: v for k, v in data.items() if not k.startswith(prefix)}
    data.update({prefix + key: entry for key, entry in entries.items()})
    lines = [
        f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(data.items())
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


# ----------------------------------------------------------------------
# One measured run
# ----------------------------------------------------------------------


def setup_probe(workload: str, smoke: bool) -> Dict[str, float]:
    """Import and set up once, in this fresh interpreter.

    Speed probes just before and after scale both times to the
    reference host's speed.
    """
    import speed

    probes = [speed.probe() for _ in range(SPEED_PROBES)]
    started = time.perf_counter()
    import workloads

    imported = time.perf_counter()
    workloads.set_up(workload, smoke, WORKDIR)
    done = time.perf_counter()
    probes += [speed.probe() for _ in range(SPEED_PROBES)]
    slowdown = speed.slowdown(probes)
    return {
        "import_s": (imported - started) / slowdown,
        "init_s": (done - imported) / slowdown,
        "slowdown": slowdown,
    }


def setup_probes(workload: str, smoke: bool, count: int) -> List[Dict[str, float]]:
    """Set up ``count`` times, each in a fresh interpreter."""
    probes = []
    for _ in range(count):
        command = [sys.executable, str(HERE / "run.py"), "--setup-probe", workload]
        if smoke:
            command.append("--smoke")
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def summarise_setup(probes: List[Dict[str, float]]) -> Dict[str, Any]:
    return {
        "setup_s": statistics.median(p["import_s"] + p["init_s"] for p in probes),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "init_s": statistics.median(p["init_s"] for p in probes),
        "probes": probes,
    }


def single_run(args: argparse.Namespace) -> int:
    import workloads
    from tracer import Tracer, calibrate_overhead

    declared = declared_metrics(bool(args.trace))
    reference = load_reference(args.smoke)
    # Half the set-up probes run before the window and half after it:
    # the host's speed changes in phases of seconds to minutes, and
    # probes half a minute apart are less likely all to fall in one.
    probes = setup_probes(args.workload, args.smoke, SETUP_PROBES // 2)
    call_cost = calibrate_overhead() if args.trace else 0.0
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer.installed():
            window = workloads.measure(
                args.workload, args.seed, args.seconds, args.smoke,
                reference, WORKDIR, tracer,
            )
    else:
        window = workloads.measure(
            args.workload, args.seed, args.seconds, args.smoke,
            reference, WORKDIR,
        )
    probes += setup_probes(args.workload, args.smoke, SETUP_PROBES - len(probes))
    setup = summarise_setup(probes)
    if tracer is not None:
        values = workloads.layer_metrics(window, tracer, setup, call_cost)
    else:
        values = workloads.end_to_end_metrics(window, setup)
    if set(values) != set(declared):
        raise SystemExit(
            f"e2e benchmark: metrics {sorted(set(values) ^ set(declared))} "
            f"are not both computed and declared in BENCHMARK.json"
        )

    failed = len(window.failures)
    power_mw = (
        1e3 * statistics.fmean(window.powers) if window.powers else None
    )
    print(
        f"{args.workload} seed {args.seed}: {window.attempted} units "
        f"({len(window.run_seconds)} complete, "
        f"{len(window.generation_seconds)} generations, "
        f"{window.evaluations} evaluations) in {window.wall:.3f} s; "
        f"power_mw_mean {power_mw}"
    )
    for failure in window.failures:
        print(f"  FAILED {failure}")
    for name, spec in declared.items():
        print(f"  {name} = {values[name]!r} {spec['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": window.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": declared[name]["unit"]}
            for name in declared
        },
    }
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "smoke": args.smoke,
            "result": result,
            "units": window.units,
            "failures": window.failures,
            "wall_s": window.wall,
            # The window without its speed probes, the CPUs' steal
            # time during it, the window without both, and that at the
            # reference host's speed (traced windows take no probes).
            "work_wall_s": window.work_wall,
            "steal_s": window.steal_seconds,
            "steal_free_wall_s": window.steal_free_wall,
            "reference_wall_s": (
                window.reference_wall if window.probing else None
            ),
            "speed_probes": len(window.stretches),
            "samples": {
                "generations": len(window.generation_seconds),
                "complete_runs": len(window.run_seconds),
                "setup_probes": SETUP_PROBES,
            },
            "evaluations": window.evaluations,
            "synth_s_p50": (
                statistics.median(window.run_seconds)
                if window.run_seconds
                else None
            ),
            "power_mw_mean": power_mw,
            "setup": setup,
        }
        if tracer is not None:
            record["self_seconds"] = dict(tracer.self_time)
            record["trace_events"] = tracer.chrome_trace(window.started)
        with open(args.record, "w") as handle:
            json.dump(record, handle)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# The whole benchmark
# ----------------------------------------------------------------------


def host_block() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def summarise(values: List[float]) -> Dict[str, Any]:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def harness(args: argparse.Namespace) -> int:
    from tracer import write_chrome_trace

    out = pathlib.Path(args.out)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or (
        SMOKE_SECONDS if args.smoke else load_benchmark()["run_seconds"]
    )
    names = args.workload or list(WORKLOADS)
    # Repeats interleave the workloads, rotating which goes first; the
    # traced pass comes last.
    order = [
        (names[(i + r) % len(names)], r, 0)
        for r in range(args.repeats)
        for i in range(len(names))
    ] + [(name, 0, 1) for name in names]
    records: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    traced: Dict[str, Dict[str, Any]] = {}
    crashed = []
    for name, repeat, trace in order:
        path = runs_dir / f"{name}-{'traced' if trace else repeat}.json"
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--record", str(path),
        ]
        if args.smoke:
            command.append("--smoke")
        print(f"[e2e] {name} {'traced' if trace else f'repeat {repeat}'}", flush=True)
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            crashed.append(f"{name}: exit {done.returncode}: {done.stderr[-2000:]}")
            print(done.stdout + done.stderr, flush=True)
            continue
        with open(path) as handle:
            record = json.load(handle)
        if trace:
            traced[name] = record
        else:
            records[name].append(record)

    end_to_end = declared_metrics(False)
    per_layer = declared_metrics(True)
    report: Dict[str, Any] = {
        "host": host_block(),
        "provenance": {
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "seed": args.seed,
            "repeats": args.repeats,
            "seconds": seconds,
            "smoke": args.smoke,
            "run_order": [
                f"{name}:{'traced' if trace else repeat}"
                for name, repeat, trace in order
            ],
        },
        "workloads": {},
    }
    events: List[Dict[str, Any]] = []
    failed_total = 0
    for pid, name in enumerate(names, start=1):
        runs = records[name]
        entry: Dict[str, Any] = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]],
            "power_mw_mean": [r["power_mw_mean"] for r in runs],
            "end_to_end": {
                metric: {
                    "unit": spec["unit"],
                    **summarise(
                        [r["result"]["metrics"][metric]["value"] for r in runs]
                    ),
                }
                for metric, spec in end_to_end.items()
                if runs
            },
        }
        if name in traced:
            record = traced[name]
            entry["per_layer"] = {
                metric: {
                    "unit": per_layer[metric]["unit"],
                    "value": record["result"]["metrics"][metric]["value"],
                }
                for metric in per_layer
            }
            entry["traced_failed"] = record["result"]["failed"]
            entry["self_seconds"] = record["self_seconds"]
            entry["traced_wall_s"] = record["wall_s"]
            if runs:
                # The measured counterpart of trace_overhead_est_frac:
                # untraced over traced throughput without steal, neither
                # scaled to the reference host, with the untraced runs'
                # own spread to read it against.
                rate = summarise(
                    [r["evaluations"] / r["steal_free_wall_s"] for r in runs]
                )
                entry["trace_overhead_measured"] = {
                    "value": rate["median"]
                    / (record["evaluations"] / record["steal_free_wall_s"])
                    - 1,
                    "untraced_spread": (rate["q3"] - rate["q1"]) / rate["median"],
                }
            for event in record["trace_events"]:
                events.append({**event, "pid": pid})
        failed_total += entry["failed"] + entry.get("traced_failed", 0)
        report["workloads"][name] = entry
    with open(out / "results.json", "w") as handle:
        json.dump(report, handle, indent=1)
    write_chrome_trace(
        out / "trace.json", events, {pid: n for pid, n in enumerate(names, 1)}
    )

    for name, entry in report["workloads"].items():
        print(f"\n{name}: attempted {entry['attempted']}, failed {entry['failed']}, "
              f"power_mw_mean {entry['power_mw_mean']}")
        for metric, stats in entry["end_to_end"].items():
            print(f"  {metric:<34} median {stats['median']:.6g} {stats['unit']} "
                  f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})")
        for metric, stats in entry.get("per_layer", {}).items():
            print(f"  {metric:<34} {stats['value']:.6g} {stats['unit']}")
        if "trace_overhead_measured" in entry:
            measured = entry["trace_overhead_measured"]
            print(f"  {'trace overhead, measured':<34} {measured['value']:.6g} 1 "
                  f"(untraced spread {measured['untraced_spread']:.6g})")
    print(f"\nresults: {out / 'results.json'}; trace: {out / 'trace.json'}")
    for message in crashed:
        print(f"CRASHED {message}")
    return 1 if crashed or failed_total else 0


def compare(path_a: str, path_b: str) -> int:
    """Judge B's medians against A's, with ``BENCHMARK.json``'s bounds."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    declared = declared_metrics(False)
    verdicts = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric, spec in declared.items():
            base = a["workloads"][name]["end_to_end"][metric]
            new = b["workloads"][name]["end_to_end"][metric]
            spread = (base["q3"] - base["q1"]) / base["median"]
            change = (new["median"] - base["median"]) / base["median"]
            worse = change if spec["better"] == "lower" else -change
            if spread > spec["bound"]:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "worse"
            elif -worse > spec["bound"]:
                verdict = "better"
            else:
                verdict = "ok"
            verdicts.append(verdict)
            print(
                f"{name:<16} {metric:<16} A {base['median']:.6g} "
                f"B {new['median']:.6g} {spec['unit']:<6} "
                f"change {change:+.2%} A-spread {spread:.2%} "
                f"bound {spec['bound']:.0%}  {verdict}"
            )
    return 1 if "worse" in verdicts else 0


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=400)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="one measured run of one workload (0 untraced, 1 traced)",
    )
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--record", help="write one run's details here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny GA sizing (pop 6, 4 generations) for tests",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    _use_checkout_sources()
    WORKDIR.mkdir(exist_ok=True)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.setup_probe, args.smoke)))
        return 0
    if args.make_reference:
        import workloads

        write_reference(args.smoke, workloads.make_reference(args.smoke, WORKDIR))
        return 0
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1 or not args.seconds:
            parser.error("--trace needs exactly one --workload and --seconds")
        args.workload = args.workload[0]
        return single_run(args)
    return harness(args)


if __name__ == "__main__":
    sys.exit(main())
