"""MetricsRegistry: counters, phase timers, snapshot/delta/merge, export."""

import json
import time

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    format_key,
    metric_key,
    phase_delta,
)


class TestRecording:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        assert reg.inc("evals") == 1.0
        assert reg.inc("evals", 4.0) == 5.0
        assert reg.counter_value("evals") == 5.0
        assert reg.counter_value("absent") == 0.0

    def test_labels_address_distinct_series(self):
        reg = MetricsRegistry()
        reg.inc("failures", stage="map")
        reg.inc("failures", stage="imap")
        reg.inc("failures", stage="map")
        assert reg.counter_value("failures", stage="map") == 2.0
        assert reg.counter_value("failures") == 0.0

    def test_label_order_is_irrelevant(self):
        assert metric_key("m", {"a": 1, "b": 2}) == metric_key(
            "m", {"b": 2, "a": 1}
        )
        reg = MetricsRegistry()
        reg.inc("m", a=1, b=2)
        assert reg.counter_value("m", b=2, a=1) == 1.0

    def test_phases_time_into_the_phase_table(self):
        reg = MetricsRegistry()
        with reg.phase("schedule", mode="gsm"):
            time.sleep(0.001)
        with reg.phase("cores"):
            pass
        totals = reg.phase_totals()
        assert set(totals) == {("schedule", "gsm"), "cores"}
        seconds, calls = totals[("schedule", "gsm")]
        assert calls == 1 and seconds >= 0.001

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("a")
        with reg.phase("b"):
            pass
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "phases": {}}
        assert reg.to_dict() == {"counters": {}}


class TestDeltaMerge:
    """Worker deltas fold into the parent."""

    def test_counter_delta_only_reports_new_work(self):
        reg = MetricsRegistry()
        reg.inc("evals", 3)
        base = reg.snapshot()
        reg.inc("evals", 2)
        reg.inc("hits")
        delta = reg.delta_since(base)
        assert delta["counters"] == {
            metric_key("evals", {}): 2.0,
            metric_key("hits", {}): 1.0,
        }

    def test_phase_delta_only_reports_new_work(self):
        reg = MetricsRegistry()
        reg.merge({"phases": {"dvs": (1.0, 2), ("dvs", "gsm"): (0.5, 1)}})
        base = reg.snapshot()
        reg.merge({"phases": {"dvs": (0.25, 1), "power": (0.5, 1)}})
        assert reg.delta_since(base)["phases"] == {
            "dvs": (pytest.approx(0.25), 1),
            "power": (0.5, 1),
        }
        assert phase_delta(reg.phase_totals(), base["phases"]) == (
            reg.delta_since(base)["phases"]
        )

    def test_idle_delta_is_empty(self):
        reg = MetricsRegistry()
        reg.inc("evals")
        with reg.phase("cores"):
            pass
        delta = reg.delta_since(reg.snapshot())
        assert delta == {"counters": {}, "phases": {}}

    def test_a_snapshot_does_not_move_with_the_registry(self):
        reg = MetricsRegistry()
        reg.inc("evals")
        reg.merge({"phases": {"cores": (1.0, 1)}})
        base = reg.snapshot()
        reg.inc("evals")
        reg.merge({"phases": {"cores": (1.0, 1)}})
        assert base == {
            "counters": {metric_key("evals", {}): 1.0},
            "phases": {"cores": (1.0, 1)},
        }

    def test_worker_roundtrip_merges_into_parent(self):
        # Simulates the pool protocol: the forked worker starts from a
        # (copied) registry, does work, ships delta_since(base); the
        # parent merges and ends with the union of both accounts.
        parent = MetricsRegistry()
        parent.inc("evals", 10)
        parent.merge({"phases": {("schedule", "gsm"): (0.5, 1)}})
        worker = MetricsRegistry()
        worker.merge(parent.snapshot())  # COW copy at fork time
        base = worker.snapshot()
        worker.inc("evals", 5)
        worker.inc("evals", 2, outcome="feasible")
        worker.merge(
            {"phases": {("schedule", "gsm"): (0.25, 2), "cores": (0.125, 1)}}
        )
        parent.merge(worker.delta_since(base))
        assert parent.counter_value("evals") == 15.0
        assert parent.counter_value("evals", outcome="feasible") == 2.0
        assert parent.phase_totals() == {
            ("schedule", "gsm"): (pytest.approx(0.75), 3),
            "cores": (0.125, 1),
        }

    def test_merge_of_full_snapshot_equals_copy(self):
        source = MetricsRegistry()
        source.inc("a", 2)
        with source.phase("h", mode="m0"):
            pass
        target = MetricsRegistry()
        target.merge(source.snapshot())
        assert target.snapshot() == source.snapshot()
        assert target.to_dict() == source.to_dict()


class TestExport:
    def test_format_key(self):
        assert format_key(metric_key("evals", {})) == "evals"
        assert (
            format_key(metric_key("evals", {"b": "x", "a": 1}))
            == "evals{a=1,b=x}"
        )

    def test_to_dict_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.inc("evals", 3, outcome="feasible")
        with reg.phase("schedule", mode="gsm"):
            pass
        payload = json.loads(json.dumps(reg.to_dict()))
        # The phase table reaches a summary as PerfStats' phase tables.
        assert payload == {"counters": {"evals{outcome=feasible}": 3.0}}

    def test_to_dict_since_holds_only_later_counters(self):
        reg = MetricsRegistry()
        reg.inc("jobs", 2)
        base = reg.snapshot()
        reg.inc("jobs", 2)
        reg.inc("runs")
        assert reg.to_dict(since=base) == {
            "counters": {"jobs": 2.0, "runs": 1.0}
        }
