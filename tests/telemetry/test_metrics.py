"""MetricsRegistry: counters, gauges, histogram percentiles, labels."""

import numpy as np
import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_series_name,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = MetricsRegistry().counter("steps")
        assert counter.value == 0
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("steps")
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1)


class TestGauge:
    def test_value_tracks_latest_set(self):
        gauge = MetricsRegistry().gauge("loss")
        assert gauge.value is None
        gauge.set(2.0)
        gauge.set(1.5)
        assert gauge.value == 1.5
        assert gauge.series == (2.0, 1.5)


class TestHistogram:
    def test_percentiles_match_numpy(self):
        hist = MetricsRegistry().histogram("latency")
        values = list(range(1, 101))
        for v in values:
            hist.observe(v)
        for q in (0, 50, 90, 99, 100):
            assert hist.percentile(q) == pytest.approx(np.percentile(values, q))

    def test_summary_stats(self):
        hist = MetricsRegistry().histogram("latency")
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.sum == pytest.approx(6.0)
        assert hist.mean == pytest.approx(2.0)
        assert hist.min == 1.0 and hist.max == 3.0

    def test_empty_histogram(self):
        hist = MetricsRegistry().histogram("latency")
        assert hist.count == 0
        assert np.isnan(hist.percentile(50))
        assert hist.snapshot() == {"kind": "histogram", "count": 0}

    def test_percentile_range_validated(self):
        hist = MetricsRegistry().histogram("latency")
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            hist.percentile(101)


class TestRegistry:
    def test_get_or_create_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("steps") is registry.counter("steps")
        assert registry.gauge("loss", term="a") is registry.gauge("loss", term="a")

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.gauge("loss", term="NCE(f1, f1+)")
        b = registry.gauge("loss", term="NCE(f2, f2+)")
        assert a is not b
        a.set(1.0)
        assert b.value is None
        assert len(registry.series("loss")) == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_collect_uses_full_names(self):
        registry = MetricsRegistry()
        registry.counter("steps").inc()
        registry.gauge("loss", term="nce").set(0.5)
        snapshot = registry.collect()
        assert snapshot["steps"]["value"] == 1
        assert snapshot['loss{term="nce"}']["value"] == 0.5

    def test_contains_and_len(self):
        registry = MetricsRegistry()
        registry.histogram("span_seconds", name="epoch")
        assert "span_seconds" in registry
        assert "missing" not in registry
        assert len(registry) == 1


class TestFormatSeriesName:
    def test_no_labels(self):
        assert format_series_name("loss", ()) == "loss"

    def test_with_labels(self):
        name = format_series_name("loss", (("term", "nce"), ("view", "1")))
        assert name == 'loss{term="nce", view="1"}'


class TestMetricKinds:
    def test_kind_tags(self):
        registry = MetricsRegistry()
        assert isinstance(registry.counter("a"), Counter)
        assert isinstance(registry.gauge("b"), Gauge)
        assert isinstance(registry.histogram("c"), Histogram)
        kinds = {m.kind for m in registry}
        assert kinds == {"counter", "gauge", "histogram"}
