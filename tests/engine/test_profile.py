"""Unit tests for the phase profiler and the PerfStats summary."""

import dataclasses
import json
import pathlib
import time

import pytest

from repro.engine.profile import (
    PROFILER,
    SHARED_MODE,
    PerfStats,
    PhaseProfiler,
    split_phase_key,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _profiler():
    """A phase profiler over a fresh registry, and the registry."""
    registry = MetricsRegistry()
    return PhaseProfiler(registry), registry


def _record(registry, key, seconds, calls=1):
    """Book known phase time, as a worker's merged delta does."""
    registry.merge({"phases": {key: (seconds, calls)}})


class TestPhaseProfiler:
    """The registry's phase table, read as ``{key: (seconds, calls)}``."""

    def test_phase_accumulates_seconds_and_calls(self):
        profiler, _ = _profiler()
        for _ in range(3):
            with profiler.phase("dvs"):
                time.sleep(0.001)
        totals = profiler.snapshot()
        seconds, calls = totals["dvs"]
        assert calls == 3
        assert seconds >= 0.003

    def test_phase_records_even_on_exception(self):
        profiler, _ = _profiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("cores"):
                raise RuntimeError("boom")
        assert profiler.snapshot()["cores"][1] == 1

    def test_reset_clears_everything(self):
        profiler, registry = _profiler()
        _record(registry, "power", 1.0)
        registry.reset()
        assert profiler.snapshot() == {}

    def test_delta_since_only_reports_new_work(self):
        profiler, registry = _profiler()
        _record(registry, "mobility", 1.0, calls=2)
        base = profiler.snapshot()
        _record(registry, "mobility", 0.25)
        _record(registry, "power", 0.5)
        delta = profiler.delta_since(base)
        assert delta["mobility"] == (pytest.approx(0.25), 1)
        assert delta["power"] == (0.5, 1)
        assert "schedule" not in delta

    def test_delta_since_empty_when_idle(self):
        profiler, registry = _profiler()
        _record(registry, "dvs", 1.0)
        assert profiler.delta_since(profiler.snapshot()) == {}

    def test_mode_attribution_uses_tuple_keys(self):
        profiler, registry = _profiler()
        with profiler.phase("schedule", mode="gsm"):
            pass
        _record(registry, ("schedule", "mp3"), 0.5)
        _record(registry, "cores", 0.25)
        totals = profiler.snapshot()
        assert ("schedule", "gsm") in totals
        assert totals[("schedule", "mp3")] == (0.5, 1)
        assert totals["cores"] == (0.25, 1)
        assert split_phase_key(("schedule", "gsm")) == ("schedule", "gsm")
        assert split_phase_key("cores") == ("cores", None)

    def test_delta_and_merge_preserve_mode_keys(self):
        profiler, registry = _profiler()
        _record(registry, ("dvs", "gsm"), 1.0)
        base = profiler.snapshot()
        _record(registry, ("dvs", "gsm"), 0.5)
        _record(registry, ("dvs", "mp3"), 0.25)
        delta = profiler.delta_since(base)
        assert delta == {
            ("dvs", "gsm"): (pytest.approx(0.5), 1),
            ("dvs", "mp3"): (0.25, 1),
        }
        other, other_registry = _profiler()
        other_registry.merge({"phases": delta})
        assert other.snapshot()[("dvs", "gsm")] == (pytest.approx(0.5), 1)

    def test_merge_folds_totals(self):
        left, left_registry = _profiler()
        _record(left_registry, "dvs", 1.0, calls=2)
        _, right_registry = _profiler()
        _record(right_registry, "dvs", 2.0, calls=3)
        _record(right_registry, "power", 1.0)
        left_registry.merge(right_registry.snapshot())
        assert left.snapshot()["dvs"] == (3.0, 5)
        assert left.snapshot()["power"] == (1.0, 1)

    def test_the_global_profiler_times_into_the_registry(self):
        base = REGISTRY.snapshot()
        with PROFILER.phase("profile-test", mode="m0"):
            pass
        assert PROFILER.phase == REGISTRY.phase
        assert REGISTRY.delta_since(base)["phases"] == {
            ("profile-test", "m0"): PROFILER.snapshot()[("profile-test", "m0")]
        }


class TestPerfStats:
    def test_evaluations_per_second(self):
        stats = PerfStats(evaluations=100, wall_time=4.0)
        assert stats.evaluations_per_second == pytest.approx(25.0)
        assert PerfStats().evaluations_per_second == 0.0

    def test_cache_hit_rate(self):
        stats = PerfStats(evaluations=60, cache_hits=30, dedup_hits=10)
        assert stats.cache_hit_rate == pytest.approx(0.4)
        assert PerfStats().cache_hit_rate == 0.0

    def test_pool_utilisation(self):
        # busy / (service × workers): 4 workers in service for 2 s
        # with 4 s of aggregate busy time were 50% utilised.
        stats = PerfStats(
            wall_time=2.0,
            jobs=4,
            pool_busy_seconds=4.0,
            pool_workers=4,
            pool_service_seconds=2.0,
        )
        assert stats.pool_utilisation == pytest.approx(0.5)
        # No pool in service (serial run) → zero by definition.
        assert PerfStats(wall_time=2.0, jobs=1).pool_utilisation == 0.0

    def test_pool_utilisation_jobs_field_is_irrelevant(self):
        # Regression: utilisation used to hard-return 0.0 whenever
        # ``jobs <= 1`` and divide by the *configured* job count, even
        # when the pool that actually serviced the run was smaller
        # (post-fallback) or its service window shorter than wall time.
        stats = PerfStats(
            wall_time=10.0,
            jobs=1,  # e.g. stats merged after a config override
            pool_busy_seconds=3.0,
            pool_workers=2,
            pool_service_seconds=1.5,
        )
        assert stats.pool_utilisation == pytest.approx(1.0)

    def test_pool_utilisation_after_fallback(self):
        # A pool that died and fell back to serial stops its service
        # clock; the short service window still yields a finite,
        # meaningful ratio instead of dividing wall time by jobs.
        stats = PerfStats(
            wall_time=100.0,
            jobs=4,
            pool_busy_seconds=2.0,
            pool_workers=4,
            pool_service_seconds=1.0,
            pool_fallbacks=1,
        )
        assert stats.pool_utilisation == pytest.approx(0.5)
        assert stats.to_dict()["pool_fallbacks"] == 1

    def test_merge_phase_totals(self):
        stats = PerfStats()
        stats.merge_phase_totals({"dvs": (1.0, 2)})
        stats.merge_phase_totals({"dvs": (0.5, 1), "power": (0.25, 1)})
        assert stats.phase_seconds["dvs"] == pytest.approx(1.5)
        assert stats.phase_calls["dvs"] == 3
        assert stats.phase_calls["power"] == 1

    def test_mode_buckets_sum_to_aggregate(self):
        stats = PerfStats()
        stats.merge_phase_totals(
            {
                ("schedule", "gsm"): (0.5, 2),
                ("schedule", "mp3"): (0.25, 1),
                "cores": (0.125, 3),
            }
        )
        stats.merge_phase_totals({("schedule", "gsm"): (0.5, 1)})
        assert stats.phase_seconds["schedule"] == pytest.approx(1.25)
        assert stats.phase_calls["schedule"] == 4
        assert stats.mode_phase_seconds["schedule"] == {
            "gsm": pytest.approx(1.0),
            "mp3": pytest.approx(0.25),
        }
        assert stats.mode_phase_calls["schedule"] == {"gsm": 3, "mp3": 1}
        # Unattributed phases land in the shared bucket.
        assert stats.mode_phase_seconds["cores"] == {
            SHARED_MODE: pytest.approx(0.125)
        }
        for phase, total in stats.phase_seconds.items():
            assert sum(
                stats.mode_phase_seconds[phase].values()
            ) == pytest.approx(total)

    def test_to_dict_is_json_shaped(self):
        stats = PerfStats(
            evaluations=10,
            cache_hits=5,
            wall_time=1.0,
            jobs=2,
            batches=3,
            parallel_evaluations=8,
            pool_busy_seconds=1.2,
        )
        stats.merge_phase_totals({"schedule": (0.5, 10)})
        payload = stats.to_dict()
        assert payload["evaluations"] == 10
        assert payload["jobs"] == 2
        assert payload["phase_seconds"] == {"schedule": 0.5}
        assert payload["phase_calls"] == {"schedule": 10}
        assert 0.0 <= payload["cache_hit_rate"] <= 1.0


class TestPerfStatsLedger:
    """``merge`` and ``from_dict``: how run ledgers add up and reload."""

    def _ledger(self, **overrides):
        stats = PerfStats(**overrides)
        stats.merge_phase_totals(
            {("schedule", "gsm"): (0.5, 2), "cores": (0.25, 1)}
        )
        return stats

    def test_merge_is_a_field_wise_sum(self):
        left = self._ledger(
            evaluations=10,
            wall_time=1.5,
            jobs=2,
            pool_workers=2,
            pool_busy_seconds=0.75,
            mode_cache_evictions=3,
            speculation_issued=4,
        )
        right = self._ledger(
            evaluations=5,
            wall_time=0.5,
            jobs=4,
            pool_workers=0,
            pool_busy_seconds=0.25,
            mode_cache_evictions=1,
            inprocess_evaluations=7,
        )
        right.merge_phase_totals({("schedule", "mp3"): (1.0, 1)})
        left.merge(right)
        assert left.evaluations == 15
        assert left.wall_time == pytest.approx(2.0)
        assert left.pool_busy_seconds == pytest.approx(1.0)
        assert left.mode_cache_evictions == 4
        assert left.speculation_issued == 4
        assert left.inprocess_evaluations == 7
        # Configuration figures take the larger value.
        assert left.jobs == 4
        assert left.pool_workers == 2
        # Nested phase tables add up key by key.
        assert left.phase_seconds == {
            "schedule": pytest.approx(2.0),
            "cores": pytest.approx(0.5),
        }
        assert left.phase_calls == {"schedule": 5, "cores": 2}
        assert left.mode_phase_seconds["schedule"] == {
            "gsm": pytest.approx(1.0),
            "mp3": pytest.approx(1.0),
        }
        assert left.mode_phase_calls == {
            "schedule": {"gsm": 4, "mp3": 1},
            "cores": {SHARED_MODE: 2},
        }

    def test_merge_leaves_the_other_ledger_alone(self):
        left = PerfStats()
        right = self._ledger()
        left.merge(right)
        left.merge_phase_totals({("schedule", "gsm"): (1.0, 1)})
        assert right.mode_phase_calls["schedule"] == {"gsm": 2}

    def test_from_dict_round_trips(self):
        stats = self._ledger(
            evaluations=10,
            cache_hits=4,
            wall_time=2.0,
            jobs=2,
            pool_workers=2,
            pool_busy_seconds=1.0,
            pool_dispatch_seconds=0.75,
            speculation_issued=6,
            speculation_hits=5,
        )
        payload = stats.to_dict()
        assert PerfStats.from_dict(payload) == stats
        assert PerfStats.from_dict(payload).to_dict() == payload

    def test_to_dict_carries_every_field_and_rate(self):
        payload = PerfStats().to_dict()
        for spec in dataclasses.fields(PerfStats):
            assert spec.name in payload
        for rate in (
            "cache_hit_rate",
            "evaluations_per_second",
            "pool_utilisation",
            "mode_cache_hit_rate",
            "speculation_hit_rate",
        ):
            assert payload[rate] == 0.0

    def test_from_dict_ignores_unknown_and_derived_keys(self):
        stats = PerfStats.from_dict(
            {"evaluations": 3, "pool_utilisation": 0.9, "not_a_field": 1}
        )
        assert stats == PerfStats(evaluations=3)

    def test_from_dict_loads_an_old_summary(self):
        summary = json.loads(
            (FIXTURES / "run_summary_pr3.json").read_text()
        )
        stats = PerfStats.from_dict(summary["perf"])
        assert stats.evaluations == 3760
        assert stats.dedup_hits == 120
        assert stats.phase_calls["schedule"] == 7520
        assert stats.mode_phase_seconds == {
            "schedule": {"m0": 11.0, "m1": 10.5}
        }
        # Fields the old schema lacked keep their defaults.
        assert stats.mode_phase_calls == {}
        assert stats.jobs == 1
        assert stats.pool_workers == 0
        assert stats.pool_utilisation == 0.0
