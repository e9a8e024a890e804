"""What a run's one recorder must keep: the same account at any job count.

The metrics registry is the process's only recorder.  A pooled run's
workers ship their counters and phase time back in one registry delta
per chunk, and the run reads one delta of its own; these tests pin
what that must add up to, and the shape the end-to-end benchmark
harness reads (``benchmarks/e2e/workloads.py::measure``).
"""

import pytest

from repro.benchgen import registry
from repro.engine.profile import PROFILER
from repro.obs.metrics import REGISTRY
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer

from tests.conftest import make_two_mode_problem

#: Series that legitimately differ with the job count: each pool worker
#: keeps its own mode-result cache, and only a pool has pool series.
_PER_PROCESS = ("eval_mode_cache_", "engine_pool_")


def _run(problem, jobs):
    """One run at ``jobs``; its result and its registry delta."""
    config = SynthesisConfig(
        population_size=12,
        max_generations=8,
        dvs=DvsMethod.GRADIENT,
        jobs=jobs,
        seed=5,
    )
    base = REGISTRY.snapshot()
    result = MultiModeSynthesizer(problem, config).run()
    return result, REGISTRY.delta_since(base)


@pytest.fixture(scope="module", params=["mul3", "smartphone"])
def runs(request):
    problem = registry.get(request.param)
    return {jobs: _run(problem, jobs) for jobs in (1, 2)}


def test_a_pooled_run_counts_what_a_serial_run_counts(runs):
    # The speculation replay re-runs the breeding stages in the parent;
    # with no pause left, it must count nothing.
    (serial, serial_delta), (pooled, pooled_delta) = runs[1], runs[2]
    assert pooled.evaluations == serial.evaluations

    def counters(delta):
        return {
            key: value
            for key, value in delta["counters"].items()
            if not key[0].startswith(_PER_PROCESS)
        }

    assert counters(pooled_delta) == counters(serial_delta)
    assert counters(serial_delta)


def test_worker_phase_time_is_booked_once(runs):
    # Worker phase time arrives through REGISTRY.merge; adding it to
    # the backend's ledger as well would count each call twice.
    (serial, _), (pooled, _) = runs[1], runs[2]
    for phase in ("cores", "power"):
        assert pooled.perf.phase_calls[phase] == serial.perf.phase_calls[phase]
        assert serial.perf.phase_calls[phase] == serial.evaluations + 1


def test_the_benchmark_harness_reads_phases_and_cache_counters():
    # The same calls, in the same order, as the e2e harness's measure().
    problem = make_two_mode_problem()
    profile_base = PROFILER.snapshot()
    metrics_base = REGISTRY.snapshot()
    result = MultiModeSynthesizer(
        problem,
        SynthesisConfig(
            population_size=10, max_generations=4, convergence_generations=10
        ),
    ).run()
    profile_delta = PROFILER.delta_since(profile_base)
    counter_delta = {}
    for (name, _labels), value in (
        REGISTRY.delta_since(metrics_base).get("counters", {}).items()
    ):
        counter_delta[name] = counter_delta.get(name, 0.0) + value

    assert {"cores", "power"} <= set(profile_delta)
    modes = {mode.name for mode in problem.omsm.modes}
    assert {
        key[1] for key in profile_delta if isinstance(key, tuple)
    } <= modes
    assert any(
        isinstance(key, tuple) and key[0] == "schedule"
        for key in profile_delta
    )
    for key, (seconds, calls) in profile_delta.items():
        assert isinstance(key, str) or (
            isinstance(key, tuple) and len(key) == 2
        )
        assert isinstance(seconds, float) and seconds >= 0.0
        assert isinstance(calls, int) and calls > 0
    assert profile_delta["cores"][1] == result.perf.phase_calls["cores"]
    assert counter_delta["eval_mode_cache_misses_total"] > 0
    assert counter_delta["eval_mode_cache_hits_total"] > 0
    assert counter_delta["eval_mode_cache_misses_total"] == (
        result.perf.mode_cache_misses
    )
