"""Acceptance: per-mode phase timings sum exactly to the aggregates.

The ISSUE criterion verified here: for a real synthesis run the
per-mode breakdown of every phase (``perf.mode_phase_seconds``) sums,
within float tolerance, to that phase's aggregate ``phase_seconds`` —
with serial evaluation and with a worker pool, whose per-mode buckets
travel back to the parent inside its metrics registry deltas, which
the run's one delta then reads with the parent's.  With the incremental
pipeline a warm mode-result cache may skip per-mode stages entirely
(they then record *nothing*, keeping the invariant trivially); its hits
are counted per mode by the ``eval_mode_cache_hits_total`` counters,
not timed.
"""

import pytest

from repro.engine.profile import SHARED_MODE
from repro.obs.metrics import REGISTRY
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer

from tests.conftest import make_two_mode_problem

#: Phases always timed per mode (whichever of them actually run).
PER_MODE_PHASES = {"mobility", "schedule", "dvs"}
#: Phases timed once per candidate (or per prediction pass, for
#: ``speculate`` — which wraps whole evaluations on the worker side and
#: the replay on the parent side), landing in the shared bucket.
SHARED_PHASES = {"cores", "power", "speculate"}


@pytest.fixture(scope="module")
def problem():
    return make_two_mode_problem()


def _run(problem, jobs, **overrides):
    config = SynthesisConfig(
        population_size=10,
        max_generations=4,
        convergence_generations=10,
        dvs=DvsMethod.GRADIENT,
        jobs=jobs,
        seed=5,
        **overrides,
    )
    return MultiModeSynthesizer(problem, config).run()


@pytest.mark.parametrize("jobs", [1, 4])
def test_mode_buckets_sum_to_phase_aggregates(problem, jobs):
    perf = _run(problem, jobs).perf
    assert perf is not None
    assert perf.phase_seconds, "no phases were profiled"
    assert set(perf.mode_phase_seconds) == set(perf.phase_seconds)
    for phase, total in perf.phase_seconds.items():
        buckets = perf.mode_phase_seconds[phase]
        assert sum(buckets.values()) == pytest.approx(total)
        assert sum(
            perf.mode_phase_calls[phase].values()
        ) == perf.phase_calls[phase]


@pytest.mark.parametrize("jobs", [1, 4])
def test_mode_attribution_matches_phase_kind(problem, jobs):
    perf = _run(problem, jobs).perf
    mode_names = {mode.name for mode in problem.omsm.modes}
    assert set(perf.mode_phase_seconds) <= PER_MODE_PHASES | SHARED_PHASES
    # Per-mode phases are attributed to real modes (a warm cache may
    # have skipped a stage for some — or all — modes)...
    for phase in PER_MODE_PHASES & set(perf.mode_phase_seconds):
        buckets = set(perf.mode_phase_seconds[phase])
        assert buckets and buckets <= mode_names
    # ...while whole-mapping phases land in the shared bucket.
    for phase in SHARED_PHASES & set(perf.mode_phase_seconds):
        assert set(perf.mode_phase_seconds[phase]) == {SHARED_MODE}


@pytest.mark.parametrize("jobs", [1, 4])
def test_cache_hits_profiled_per_mode(jobs):
    # A fresh problem, evaluated twice with the same seed: the second
    # run replays identical genomes against the warm per-mode cache, so
    # hits must show up — per mode in the eval_mode_cache_hits_total
    # counters (pool workers' merged in) and in the PerfStats counters.
    problem = make_two_mode_problem()
    cold = _run(problem, jobs).perf
    assert cold.mode_cache_misses > 0
    base = REGISTRY.snapshot()
    warm = _run(problem, jobs).perf
    assert warm.mode_cache_hits > 0
    assert 0.0 < warm.mode_cache_hit_rate <= 1.0
    hits = {}
    for (name, labels), value in REGISTRY.delta_since(base)["counters"].items():
        if name == "eval_mode_cache_hits_total":
            mode = dict(labels)["mode"]
            hits[mode] = hits.get(mode, 0.0) + value
    assert set(hits) == {mode.name for mode in problem.omsm.modes}
    assert sum(hits.values()) == warm.mode_cache_hits
    # Hits are counted, not timed: they have no profiler phase.
    assert "cache_hit" not in warm.phase_seconds
