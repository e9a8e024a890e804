"""Workloads, timed windows and correctness checks of the e2e benchmark.

Every workload runs real synthesis work for a fixed wall-clock window
and records what a user of the system would see (evaluation
throughput, CPU per evaluation, memory) plus, in a traced window, where
the time went layer by layer.

Inputs come from ``--seed``: unit ``i`` of a window (one synthesis run,
or one Tables 1–3 mini-campaign) uses GA seed
``SEED_POOL[(seed + i) % len(SEED_POOL)]``.  The pool is what
``reference.json`` fingerprints, so every unit of every window is
checked against a committed reference that was itself checked against
the frozen seed path when it was generated.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import pathlib
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.benchgen import registry
from repro.engine.decode_cache import context_for
from repro.engine.profile import PROFILER, PerfStats
from repro.errors import ReproError
from repro.eval.cache import mode_cache_for
from repro.mapping.encoding import MappingString
from repro.obs.metrics import REGISTRY
from repro.problem import Problem
from repro.runtime import checkpoint
from repro.runtime.runner import CampaignRunner, JobResult
from repro.runtime.spec import CampaignSpec
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer, SynthesisResult
from repro.synthesis.evaluator import evaluate_mapping
from repro.synthesis.state import GAState
from repro.validation import validate_implementation

import speed
from tracer import TARGETS, Tracer

#: GA seeds (campaign base seeds) the windows draw from, in order.
SEED_POOL = tuple(range(400, 408))

#: Smartphone workloads: (DVS method, worker processes).
PHONE = {
    "phone-dvs": (DvsMethod.GRADIENT, 1),
    "phone-nodvs": (DvsMethod.NONE, 1),
    "phone-dvs-jobs2": (DvsMethod.GRADIENT, 2),
}
TABLES = "tables-mini"

#: mul1–mul12 and the smart phone, ordered so that every prefix of a
#: campaign costs about the whole campaign's average time per
#: evaluation (within 8 % on this GA sizing).  A window ends partway
#: through a campaign; in suite order that partial campaign is mul1 and
#: mul2, two to three times cheaper per evaluation than the average,
#: so the window's throughput would depend on where it happened to end.
TABLES_INSTANCES = [
    "mul7", "mul1", "mul10", "mul5", "mul3", "mul4", "mul12",
    "mul6", "mul11", "smartphone", "mul9", "mul8", "mul2",
]

#: ``--smoke`` GA sizing, for tests: seconds instead of minutes.
SMOKE = {
    "population_size": 6,
    "max_generations": 4,
    "local_search_budget_factor": 0.1,
}

#: The frozen seed path the reference is checked against.
SEED_PATH = {"decode_cache": False, "mode_cache": False, "jobs": 1}


def pool_seed(seed: int, index: int) -> int:
    return SEED_POOL[(seed + index) % len(SEED_POOL)]


def phone_family(workload: str) -> str:
    """Reference key prefix; the jobs=2 run shares phone-dvs's entries."""
    return f"smartphone/{PHONE[workload][0].value}"


def phone_config(workload: str, seed: int, smoke: bool) -> SynthesisConfig:
    """Table 3: the default configuration, with or without PV-DVS."""
    dvs, jobs = PHONE[workload]
    config = SynthesisConfig(dvs=dvs, jobs=jobs, seed=seed)
    return config.with_updates(**SMOKE) if smoke else config


def tables_spec(base_seed: int, smoke: bool) -> CampaignSpec:
    """Tables 1–3 at one run per cell: 13 instances × 2 DVS × 2 policies.

    The GA is smaller than the paper's so that a whole 52-job campaign
    fits one window (about 12 s here) even when the host runs at two
    thirds of its usual speed.  A campaign keeps every instance it has loaded
    until it ends, so its memory grows to the end; a window that
    finished no campaign would report a peak that depends on how far it
    got.
    """
    config = SynthesisConfig(
        population_size=12,
        max_generations=16,
        convergence_generations=8,
        local_search_budget_factor=0.5,
    )
    return CampaignSpec(
        name=TABLES,
        instances=list(TABLES_INSTANCES),
        dvs_methods=[DvsMethod.NONE, DvsMethod.GRADIENT],
        probability_settings=[False, True],
        runs=1,
        base_seed=base_seed,
        config=config.with_updates(**SMOKE) if smoke else config,
        checkpoint_every=5,
    )


def fingerprint(
    power: float,
    evaluations: int,
    generations: int,
    history: Sequence[float],
    best_genes: Sequence[str],
) -> Dict[str, Any]:
    """What must repeat exactly for a run to count as correct."""
    payload = json.dumps([[repr(v) for v in history], list(best_genes)])
    return {
        "power": repr(power),
        "evaluations": evaluations,
        "generations": generations,
        "digest": hashlib.sha256(payload.encode()).hexdigest(),
    }


def result_fingerprint(result: SynthesisResult) -> Dict[str, Any]:
    return fingerprint(
        result.average_power,
        result.evaluations,
        result.generations,
        result.history,
        result.best.mapping.genes,
    )


def job_fingerprint(result: JobResult) -> Dict[str, Any]:
    return fingerprint(
        result.power,
        result.evaluations,
        result.generations,
        result.history,
        result.best_genes,
    )


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def set_up(workload: str, smoke: bool, workdir: pathlib.Path) -> Optional[Problem]:
    """Everything a workload does before its first timed run.

    Smartphone workloads load the problem and build its decode context;
    the campaign creates a runner on a fresh run directory (and removes
    it again — every timed campaign gets its own).
    """
    if workload in PHONE:
        problem = registry.get("smartphone")
        context_for(problem)
        return problem
    run_dir = tempfile.mkdtemp(dir=workdir)
    try:
        CampaignRunner(tables_spec(SEED_POOL[0], smoke), run_dir)
    finally:
        shutil.rmtree(run_dir)
    return None


# ----------------------------------------------------------------------
# Timed windows
# ----------------------------------------------------------------------


def _cpu_and_rss() -> Tuple[float, float]:
    """CPU seconds and peak RSS (MB) of this process and its children.

    Children already reaped are in ``RUSAGE_CHILDREN``; pool workers
    still running are read from ``/proc``.
    """
    live = multiprocessing.active_children()  # reaps finished ones first
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    rss_kb = max(own.ru_maxrss, children.ru_maxrss)
    tick = os.sysconf("SC_CLK_TCK")
    for process in live:
        try:
            with open(f"/proc/{process.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{process.pid}/status") as handle:
                peak = [line for line in handle if line.startswith("VmHWM:")]
        except OSError:  # it ended between the listing and the read
            continue
        cpu += (int(fields[11]) + int(fields[12])) / tick  # utime, stime
        if peak:
            rss_kb = max(rss_kb, int(peak[0].split()[1]))
    return cpu, rss_kb / 1024.0


@dataclass
class Window:
    """What one timed window did and measured."""

    started: float
    deadline: float
    cpu_base: float = 0.0
    ended: float = 0.0
    generation_seconds: List[float] = field(default_factory=list)
    #: Wall seconds of every complete synthesis run or campaign job.
    run_seconds: List[float] = field(default_factory=list)
    evaluations: int = 0
    attempted: int = 0
    #: One message per failed unit.
    failures: List[str] = field(default_factory=list)
    #: Equation-(1) power of every checked best design, in watts.
    powers: List[float] = field(default_factory=list)
    units: List[str] = field(default_factory=list)
    #: CPU seconds of the program, speed probes excluded.
    cpu_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    profile_delta: Dict[Any, Tuple[float, int]] = field(default_factory=dict)
    counter_delta: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    #: Speed probes are taken only in untraced windows.
    probing: bool = False
    #: ``(wall seconds of program work, CPU seconds of the speed probe
    #: taken right after it)`` for every stretch of the window.
    stretches: List[Tuple[float, float]] = field(default_factory=list)
    stretch_started: float = 0.0
    #: Steal time of all CPUs: the counter at the start, then the
    #: seconds stolen during the window.
    steal_base: float = 0.0
    steal_seconds: float = 0.0

    @property
    def wall(self) -> float:
        return self.ended - self.started

    @property
    def work_wall(self) -> float:
        """The window's wall clock without its speed probes."""
        if not self.probing:
            return self.wall
        return sum(wall for wall, _ in self.stretches)

    @property
    def speed_scale(self) -> float:
        """Reference-host seconds per second of this window's work."""
        return (
            sum(
                wall * speed.REFERENCE_PROBE_S / probe
                for wall, probe in self.stretches
            )
            / self.work_wall
        )

    @property
    def steal_free_wall(self) -> float:
        """The work's wall clock without speed probes and steal.

        Steal is summed over all CPUs; it delays the work by that sum
        over the number of CPUs the work kept busy.
        """
        busy = max(1.0, self.cpu_seconds / self.work_wall)
        return self.work_wall - self.steal_seconds / busy

    @property
    def reference_wall(self) -> float:
        """The work's steal-free wall clock at the reference speed."""
        return self.steal_free_wall * self.speed_scale

    def probe(self, now: float) -> None:
        """End the stretch of program work that ran until ``now``."""
        if not self.probing:
            return
        self.stretches.append((now - self.stretch_started, speed.probe()))
        self.stretch_started = time.perf_counter()

    def finish(self, now: float) -> None:
        """End the timed part at ``now``, once.

        CPU and memory are read here, so tearing down a run cut at the
        deadline (a pool, a campaign's interrupt path) is not counted;
        nothing after this is traced.
        """
        if self.ended:
            return
        self.ended = now
        self.probe(now)
        self.steal_seconds = speed.stolen_seconds() - self.steal_base
        cpu, self.peak_rss_mb = _cpu_and_rss()
        probes = sum(probe for _, probe in self.stretches)
        self.cpu_seconds = cpu - self.cpu_base - probes
        if self.tracer is not None:
            self.tracer.active = False


class _Deadline(Exception):
    """Raised from the generation hook to end a run at the deadline."""


def measure(
    workload: str,
    seed: int,
    seconds: float,
    smoke: bool,
    reference: Dict[str, Any],
    workdir: pathlib.Path,
    tracer: Optional[Tracer] = None,
) -> Window:
    """Run ``workload`` for ``seconds`` of wall clock, then check it.

    A run still going at the deadline stops at its next generation
    boundary (a campaign at its next job boundary); it counts towards
    the rates and is checked against the reference prefix.  An
    untraced window takes a speed probe at every generation boundary.
    """
    problem = set_up(workload, smoke, workdir)
    cpu_base, _ = _cpu_and_rss()
    profile_base = PROFILER.snapshot()
    metrics_base = REGISTRY.snapshot()
    if tracer is not None:
        tracer.active = True
    started = time.perf_counter()
    window = Window(
        started=started,
        deadline=started + seconds,
        cpu_base=cpu_base,
        tracer=tracer,
        probing=tracer is None,
        stretch_started=started,
        steal_base=speed.stolen_seconds(),
    )
    if problem is not None:
        checks = _phone_window(workload, problem, seed, smoke, window)
    else:
        checks = _tables_window(seed, smoke, window, workdir)
    window.profile_delta = PROFILER.delta_since(profile_base)
    for (name, _labels), value in (
        REGISTRY.delta_since(metrics_base).get("counters", {}).items()
    ):
        window.counter_delta[name] = window.counter_delta.get(name, 0.0) + value
    checks(reference)
    return window


def _phone_window(
    workload: str,
    problem: Problem,
    seed: int,
    smoke: bool,
    window: Window,
):
    tracer = window.tracer
    complete: List[Tuple[int, SynthesisResult]] = []
    truncated: List[Tuple[int, GAState]] = []
    index = 0
    end = window.started
    while not truncated and time.perf_counter() < window.deadline:
        ga_seed = pool_seed(seed, index)
        index += 1
        config = phone_config(workload, ga_seed, smoke)
        # Every run starts as cold as a fresh CLI run.
        mode_cache_for(problem, config).clear()
        window.attempted += 1
        window.units.append(f"seed {ga_seed}")
        marks = [time.perf_counter()]
        last: List[GAState] = []

        def on_generation(state: GAState) -> None:
            now = time.perf_counter()
            window.generation_seconds.append(now - marks[-1])
            last[:] = [state]
            if now >= window.deadline:
                marks.append(now)
                window.finish(now)
                raise _Deadline
            window.probe(now)
            marks.append(time.perf_counter())

        try:
            result = MultiModeSynthesizer(problem, config).run(
                on_generation=on_generation
            )
        except _Deadline:
            end = marks[-1]
            window.evaluations += last[0].evaluations
            truncated.append((ga_seed, last[0]))
        except Exception as exc:  # a failed run is counted, not fatal
            end = time.perf_counter()
            window.failures.append(f"seed {ga_seed}: {exc!r}")
        else:
            end = time.perf_counter()
            window.run_seconds.append(end - marks[0])
            window.evaluations += result.evaluations
            complete.append((ga_seed, result))
        if tracer is not None:
            tracer.mark(f"synthesis seed {ga_seed}", marks[0], end)
            for generation in range(1, len(marks)):
                tracer.mark(
                    f"generation {generation}",
                    marks[generation - 1],
                    marks[generation],
                )
    window.finish(end)

    family = phone_family(workload)

    def check(reference: Dict[str, Any]) -> None:
        for ga_seed, result in complete:
            window.powers.append(result.average_power)
            failure = _check_complete(
                reference.get(f"{family}/{ga_seed}"), result_fingerprint(result)
            )
            if failure is None:
                try:
                    validate_implementation(result.best)
                except ReproError as exc:
                    failure = f"validation: {exc}"
            if failure is not None:
                window.failures.append(f"seed {ga_seed}: {failure}")
        for ga_seed, state in truncated:
            failure = _check_prefix(reference.get(f"{family}/{ga_seed}"), state)
            if failure is not None:
                window.failures.append(f"seed {ga_seed}: {failure}")

    return check


def _check_complete(
    expected: Optional[Dict[str, Any]], got: Dict[str, Any]
) -> Optional[str]:
    if expected is None:
        return "no reference fingerprint"
    for key, value in got.items():
        if expected.get(key) != value:
            return f"{key} {value!r} differs from reference {expected.get(key)!r}"
    return None


def _check_prefix(
    expected: Optional[Dict[str, Any]], state: GAState
) -> Optional[str]:
    """A run cut at the deadline must agree with its reference so far."""
    if expected is None:
        return "no reference fingerprint"
    generation = state.generation
    if [repr(v) for v in state.history] != expected["history"][:generation]:
        return f"history up to generation {generation} differs from reference"
    if state.evaluations != expected["evaluations_by_generation"][generation - 1]:
        return f"evaluations at generation {generation} differ from reference"
    return None


class _StopCampaign(KeyboardInterrupt):
    """The campaign runner's graceful interrupt, raised at the deadline."""


def _tables_window(
    seed: int,
    smoke: bool,
    window: Window,
    workdir: pathlib.Path,
):
    tracer = window.tracer
    campaigns: List[Tuple[CampaignSpec, str, List[str]]] = []
    index = 0
    stopped = False
    while not stopped and time.perf_counter() < window.deadline:
        if index:
            # A finished campaign leaves over a million objects in
            # reference cycles; collect them now, inside the window,
            # so the next campaign's peak memory does not depend on
            # when the collector would have got round to it.
            gc.collect()
        spec = tables_spec(pool_seed(seed, index), smoke)
        index += 1
        finished: List[str] = []
        run_dir = tempfile.mkdtemp(dir=workdir)
        campaigns.append((spec, run_dir, finished))
        clock = {"job": 0.0, "mark": 0.0}
        running: List[str] = []

        def on_event(record: Dict[str, Any]) -> None:
            now = time.perf_counter()
            kind = record["event"]
            if kind == "job_started":
                clock["job"] = clock["mark"] = now
                window.attempted += 1
                window.units.append(record["job_id"])
                running[:] = [record["job_id"]]
            elif kind == "generation":
                window.generation_seconds.append(now - clock["mark"])
                if tracer is not None:
                    tracer.mark(
                        f"generation {record['generation']}", clock["mark"], now
                    )
                window.probe(now)
                clock["mark"] = time.perf_counter()
            elif kind == "job_finished":
                running.clear()
                window.run_seconds.append(now - clock["job"])
                window.evaluations += record["evaluations"]
                finished.append(record["job_id"])
                if tracer is not None:
                    tracer.mark(record["job_id"], clock["job"], now)
                if now >= window.deadline:
                    window.finish(now)
                    raise _StopCampaign
                window.probe(now)
            elif kind == "job_failed":
                running.clear()
                window.failures.append(f"{record['job_id']}: {record['error']}")

        try:
            CampaignRunner(spec, run_dir, on_event=on_event).run()
        except _StopCampaign:
            stopped = True
        except Exception as exc:  # counted as a failure, like a failed job
            if not running:  # outside any job: the campaign is the unit
                window.attempted += 1
                running.append(f"campaign base seed {spec.base_seed}")
            window.failures.append(f"{running[0]}: {exc!r}")
            stopped = True
    window.finish(time.perf_counter())

    def check(reference: Dict[str, Any]) -> None:
        problems: Dict[str, Problem] = {}
        try:
            for spec, run_dir, finished in campaigns:
                jobs = {job.job_id: job for job in spec.jobs()}
                for job_id in finished:
                    failure = _check_job(
                        spec, jobs[job_id], run_dir, reference, problems, window
                    )
                    if failure is not None:
                        window.failures.append(f"{job_id}: {failure}")
        finally:
            for _, run_dir, _ in campaigns:
                shutil.rmtree(run_dir, ignore_errors=True)

    return check


def _check_job(spec, job, run_dir, reference, problems, window) -> Optional[str]:
    """Re-derive a finished job's best design and compare it."""
    record = checkpoint.load_result(run_dir, job.job_id)
    if record is None:
        return "result record missing"
    result = JobResult.from_dict(record)
    window.powers.append(result.power)
    failure = _check_complete(
        reference.get(f"{TABLES}/{job.job_id}"), job_fingerprint(result)
    )
    if failure is not None:
        return failure
    if job.instance not in problems:
        problems[job.instance] = registry.get(job.instance)
    problem = problems[job.instance]
    implementation = evaluate_mapping(
        problem,
        MappingString(problem, result.best_genes),
        job.configure(spec.config),
    )
    if implementation is None:
        return "best design does not decode"
    try:
        validate_implementation(implementation)
    except ReproError as exc:
        return f"validation: {exc}"
    if implementation.metrics.average_power != result.power:
        return "re-evaluated power differs from the stored result"
    return None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def quantile(values: Sequence[float], percent: int) -> float:
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def end_to_end_metrics(window: Window, setup: Dict[str, float]) -> Dict[str, float]:
    """Times scaled to the reference host's speed (see :mod:`speed`)."""
    return {
        "setup_s": setup["setup_s"],
        "evals_per_s": window.evaluations / window.reference_wall,
        "cpu_ms_per_eval": 1e3
        * window.cpu_seconds
        * window.speed_scale
        / max(1, window.evaluations),
        "peak_rss_mb": window.peak_rss_mb,
    }


#: Layers whose calls are also reported per evaluation.
PER_EVAL_LAYERS = (
    "eval.prepare_mode",
    "eval.run_mode",
    "scheduling.schedule_mode",
    "dvs.scale_schedule",
)


def layer_metrics(
    window: Window,
    tracer: Tracer,
    setup: Dict[str, float],
    call_cost: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced window (parent process only)."""
    wall = window.wall
    metrics: Dict[str, float] = {
        "synthesis.gen_ms_p50": 1e3 * quantile(window.generation_seconds, 50),
        "synthesis.gen_ms_p95": 1e3 * quantile(window.generation_seconds, 95),
    }
    for layer in dict.fromkeys(target[0] for target in TARGETS):
        metrics[f"{layer}_frac"] = tracer.self_time.get(layer, 0.0) / wall
    evaluate_calls = tracer.calls.get("eval.evaluate", 0)
    for layer in PER_EVAL_LAYERS:
        metrics[f"{layer}_per_eval"] = tracer.calls.get(layer, 0) / max(
            1, evaluate_calls
        )
    metrics["eval.evaluate_calls"] = evaluate_calls

    pool = []
    for backend in tracer.backends:
        perf = PerfStats()
        backend.finalize_perf(perf)
        pool.append(perf)
    busy = sum(p.pool_busy_seconds for p in pool)
    capacity = sum(p.pool_dispatch_seconds * p.pool_workers for p in pool)
    issued = sum(p.speculation_issued for p in pool)
    hits = sum(p.speculation_hits for p in pool)
    speculate_s = window.profile_delta.get("speculate", (0.0, 0))[0] + sum(
        p.phase_seconds.get("speculate", 0.0) for p in pool
    )
    metrics.update(
        {
            "engine.profiler_speculate_frac": speculate_s / wall,
            "engine.pool_busy_frac": busy / wall,
            "engine.pool_utilisation": busy / capacity if capacity else 0.0,
            "engine.pool_steals": sum(p.pool_steals for p in pool),
            "engine.parallel_evaluations": sum(
                p.parallel_evaluations for p in pool
            ),
            "engine.inprocess_evaluations": sum(
                p.inprocess_evaluations for p in pool
            ),
            "engine.speculation_issued": issued,
            "engine.speculation_hits": hits,
            "engine.speculation_hit_rate": hits / issued if issued else 0.0,
            "engine.evaluations": sum(d.evaluations for d in tracer.drivers),
            "engine.genome_cache_hits": sum(
                d.cache_hits for d in tracer.drivers
            ),
            "engine.dedup_hits": sum(d.dedup_hits for d in tracer.drivers),
        }
    )

    counters = window.counter_delta
    cache_hits = counters.get("eval_mode_cache_hits_total", 0.0)
    cache_misses = counters.get("eval_mode_cache_misses_total", 0.0)
    metrics.update(
        {
            "eval.mode_cache_hits": cache_hits,
            "eval.mode_cache_misses": cache_misses,
            "eval.mode_cache_evictions": counters.get(
                "eval_mode_cache_evictions_total", 0.0
            ),
            "eval.mode_cache_hit_rate": (
                cache_hits / (cache_hits + cache_misses)
                if cache_hits + cache_misses
                else 0.0
            ),
            "runtime.checkpoint_writes": tracer.calls.get(
                "runtime.checkpoint_write", 0
            ),
            "runtime.events": tracer.calls.get("runtime.event_emit", 0),
            "setup.import_s": setup["import_s"],
            "setup.init_s": setup["init_s"],
            "unattributed_frac": (wall - tracer.top_level) / wall,
            # An estimate: wrapper calls × one wrapped no-op's cost.
            # The harness also reports the measured untraced ÷ traced
            # throughput.
            "trace_overhead_est_frac": len(tracer.spans) * call_cost / wall,
        }
    )
    return metrics


# ----------------------------------------------------------------------
# Reference generation
# ----------------------------------------------------------------------


def _phone_reference(dvs_workload: str, seed: int, smoke: bool) -> Dict[str, Any]:
    problem = registry.get("smartphone")
    config = phone_config(dvs_workload, seed, smoke)
    evaluations: List[int] = []

    def on_generation(state: GAState) -> None:
        evaluations.append(state.evaluations)

    result = MultiModeSynthesizer(problem, config).run(on_generation=on_generation)
    frozen = MultiModeSynthesizer(
        registry.get("smartphone"), config.with_updates(**SEED_PATH)
    ).run()
    entry = result_fingerprint(result)
    if result_fingerprint(frozen) != entry:
        raise AssertionError(
            f"{dvs_workload} seed {seed}: default path differs from the "
            f"frozen seed path"
        )
    validate_implementation(result.best)
    entry["history"] = [repr(v) for v in result.history]
    entry["evaluations_by_generation"] = evaluations
    return entry


def _tables_reference(base_seed: int, smoke: bool, workdir: pathlib.Path):
    spec = tables_spec(base_seed, smoke)
    frozen_spec = CampaignSpec.from_dict(
        {**spec.to_dict(), "config": {**spec.config.to_dict(), **SEED_PATH}}
    )
    runs = []
    for campaign in (spec, frozen_spec):
        run_dir = tempfile.mkdtemp(dir=workdir)
        try:
            outcome = CampaignRunner(campaign, run_dir).run()
        finally:
            shutil.rmtree(run_dir)
        if outcome.failures:
            raise AssertionError(f"campaign jobs failed: {outcome.failures}")
        runs.append(
            {
                job_id: job_fingerprint(result)
                for job_id, result in outcome.results.items()
            }
        )
    if runs[0] != runs[1]:
        raise AssertionError(
            f"tables-mini base seed {base_seed}: default path differs from "
            f"the frozen seed path"
        )
    return runs[0]


def make_reference(
    smoke: bool, workdir: pathlib.Path, log=print
) -> Dict[str, Any]:
    """Fingerprint every pool seed; assert default == frozen seed path.

    Keys are ``smartphone/<dvs>/<seed>`` and ``tables-mini/<job id>``.
    """
    reference: Dict[str, Any] = {}
    for workload in ("phone-dvs", "phone-nodvs"):
        family = phone_family(workload)
        for seed in SEED_POOL:
            log(f"reference {family} seed {seed}")
            reference[f"{family}/{seed}"] = _phone_reference(workload, seed, smoke)
    for seed in SEED_POOL:
        log(f"reference {TABLES} base seed {seed}")
        for job_id, entry in _tables_reference(seed, smoke, workdir).items():
            reference[f"{TABLES}/{job_id}"] = entry
    return reference
