"""MetricsRegistry: recording, snapshot/delta/merge, JSON export."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    format_key,
    metric_key,
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

    def test_gauges_are_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("workers", 4)
        reg.set_gauge("workers", 2)
        assert reg.gauge_value("workers") == 2.0

    def test_histogram_observations(self):
        reg = MetricsRegistry(buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 100.0):
            reg.observe("seconds", value)
        data = reg.histogram_data("seconds")
        assert data.count == 3
        assert data.total == pytest.approx(105.5)
        assert data.minimum == 0.5
        assert data.maximum == 100.0
        assert data.mean == pytest.approx(105.5 / 3)
        assert data.buckets == [1, 1, 1]  # one per bucket + overflow

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.set_gauge("b", 1)
        reg.observe("c", 1.0)
        reg.reset()
        assert reg.to_dict() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestDeltaMerge:
    """The PhaseProfiler pattern: worker deltas fold into the parent."""

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

    def test_idle_delta_is_empty(self):
        reg = MetricsRegistry()
        reg.inc("evals")
        reg.set_gauge("workers", 2)
        reg.observe("seconds", 1.0)
        delta = reg.delta_since(reg.snapshot())
        assert delta == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_gauge_delta_carries_changed_values(self):
        reg = MetricsRegistry()
        reg.set_gauge("workers", 4)
        base = reg.snapshot()
        reg.set_gauge("workers", 4)  # unchanged -> absent
        reg.set_gauge("depth", 7)
        delta = reg.delta_since(base)
        assert delta["gauges"] == {metric_key("depth", {}): 7.0}

    def test_histogram_delta_subtracts_counts(self):
        reg = MetricsRegistry(buckets=(1.0,))
        reg.observe("seconds", 0.5)
        base = reg.snapshot()
        reg.observe("seconds", 2.0)
        delta = reg.delta_since(base)
        (data,) = delta["histograms"].values()
        assert data.count == 1
        assert data.total == pytest.approx(2.0)
        assert data.buckets == [0, 1]

    def test_worker_roundtrip_merges_into_parent(self):
        # Simulates the pool protocol: the forked worker starts from a
        # (copied) registry, does work, ships delta_since(base); the
        # parent merges and ends with the union of both accounts.
        parent = MetricsRegistry(buckets=(1.0, 10.0))
        parent.inc("evals", 10)
        parent.observe("seconds", 0.5)
        worker = MetricsRegistry(buckets=(1.0, 10.0))
        worker.merge(parent.snapshot())  # COW copy at fork time
        base = worker.snapshot()
        worker.inc("evals", 5)
        worker.inc("evals", 2, outcome="feasible")
        worker.observe("seconds", 5.0)
        parent.merge(worker.delta_since(base))
        assert parent.counter_value("evals") == 15.0
        assert parent.counter_value("evals", outcome="feasible") == 2.0
        data = parent.histogram_data("seconds")
        assert data.count == 2
        assert data.total == pytest.approx(5.5)
        assert data.minimum == 0.5 and data.maximum == 5.0
        assert data.buckets == [1, 1, 0]

    def test_merge_of_full_snapshot_equals_copy(self):
        source = MetricsRegistry()
        source.inc("a", 2)
        source.set_gauge("g", 3)
        source.observe("h", 0.01)
        target = MetricsRegistry()
        target.merge(source.snapshot())
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
        reg.set_gauge("workers", 2)
        reg.observe("seconds", 0.3)
        payload = json.loads(json.dumps(reg.to_dict()))
        assert payload["counters"] == {"evals{outcome=feasible}": 3.0}
        assert payload["gauges"] == {"workers": 2.0}
        histogram = payload["histograms"]["seconds"]
        assert histogram["count"] == 1
        assert histogram["sum"] == pytest.approx(0.3)
        assert len(histogram["buckets"]) == len(DEFAULT_BUCKETS) + 1

    def test_empty_histogram_min_max_export_as_none(self):
        reg = MetricsRegistry()
        data = reg.histogram_data("absent").to_dict()
        assert data["min"] is None and data["max"] is None
        assert data["count"] == 0 and data["mean"] == 0.0


class TestGaugeSources:
    """A gauge may name its source; the registry reads it at each read."""

    def _registry_with_source(self):
        reg = MetricsRegistry()
        value = [0.25]
        reg.set_gauge_source(metric_key("rate", {}), lambda: value[0])
        return reg, value

    def test_every_read_publishes_the_current_value(self):
        reg, value = self._registry_with_source()
        base = reg.snapshot()
        assert base["gauges"] == {metric_key("rate", {}): 0.25}
        value[0] = 0.5
        reg.set_gauge_source(metric_key("rate", {}), lambda: value[0])
        assert reg.delta_since(base)["gauges"] == {metric_key("rate", {}): 0.5}
        value[0] = 0.75
        reg.set_gauge_source(metric_key("rate", {}), lambda: value[0])
        assert reg.to_dict()["gauges"] == {"rate": 0.75}
        value[0] = 1.0
        reg.set_gauge_source(metric_key("rate", {}), lambda: value[0])
        assert reg.gauge_value("rate") == 1.0

    def test_a_direct_write_replaces_the_source(self):
        reg, _ = self._registry_with_source()
        reg.set_gauge("rate", 0.9)
        assert reg.gauge_value("rate") == 0.9

    def test_a_merged_value_is_a_later_write(self):
        reg, _ = self._registry_with_source()
        worker = MetricsRegistry()
        worker.set_gauge("rate", 0.6)
        reg.merge(worker.snapshot())
        assert reg.gauge_value("rate") == 0.6

    def test_work_while_paused_stays_unpublished(self):
        reg, value = self._registry_with_source()
        with reg.paused():
            value[0] = 0.5  # the source's value moves while paused
            reg.set_gauge_source(metric_key("rate", {}), lambda: 0.99)
            assert reg.gauge_value("rate") == 0.25
        assert reg.gauge_value("rate") == 0.25

    def test_reset_drops_pending_sources(self):
        # A forked worker resets on start: it must not publish a value
        # it inherited from its parent.
        reg, _ = self._registry_with_source()
        reg.reset()
        assert reg.snapshot()["gauges"] == {}
        assert reg.gauge_value("rate") == 0.0
