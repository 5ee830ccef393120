"""Unit tests for counters, gauges, histograms and the registry."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, format_labels


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_tracks_last_written_value(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(1.0)
        assert gauge.value == 1.0

    def test_high_water_mark_survives_decrease(self):
        gauge = Gauge("g")
        gauge.set(7.0)
        gauge.set(2.0)
        assert gauge.max_value == 7.0

    def test_first_write_sets_mark_even_when_negative(self):
        gauge = Gauge("g")
        gauge.set(-5.0)
        assert gauge.max_value == -5.0


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram("h")
        for value in (4.0, 1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 10.0
        assert histogram.mean == 2.5
        assert histogram.max == 4.0
        assert histogram.values() == [1.0, 2.0, 3.0, 4.0]

    def test_exact_percentiles(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            histogram.observe(value)
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(50.0) == 3.0
        assert histogram.percentile(100.0) == 5.0

    def test_empty_histogram_raises_on_readout(self):
        histogram = Histogram("h")
        with pytest.raises(ValueError):
            histogram.mean  # noqa: B018 - property access is the test
        with pytest.raises(ValueError):
            histogram.percentile(50.0)

    def test_percentile_bounds_enforced(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(101.0)

    def test_lazy_sort_survives_interleaved_reads_and_writes(self):
        # observe() only appends; the sort is deferred to the first
        # ordered read and must re-trigger after further observes.
        histogram = Histogram("h")
        for value in (5.0, 1.0, 3.0):
            histogram.observe(value)
        assert histogram.percentile(0.0) == 1.0
        assert histogram.values() == [1.0, 3.0, 5.0]
        histogram.observe(0.5)
        histogram.observe(4.0)
        assert histogram.percentile(0.0) == 0.5
        assert histogram.percentile(100.0) == 5.0
        assert histogram.values() == [0.5, 1.0, 3.0, 4.0, 5.0]

    def test_registry_merge_keeps_ordered_reads_correct(self):
        from repro.obs.metrics import MetricsRegistry

        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.histogram("h").observe(5.0)
        theirs.histogram("h").observe(1.0)
        theirs.histogram("h").observe(3.0)
        merged = mine.histogram("h")
        assert merged.values() == [5.0]  # sorted read before the merge
        mine.merge_from(theirs)
        assert merged.values() == [1.0, 3.0, 5.0]
        assert merged.sum == 9.0


class TestRegistry:
    def test_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        assert registry.counter("c", a="1", b="2") is registry.counter(
            "c", b="2", a="1"
        )

    def test_distinct_labels_are_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c", host="a").inc()
        registry.counter("c", host="b").inc(2)
        assert registry.counter_value("c", host="a") == 1
        assert registry.counter_value("c", host="b") == 2

    def test_counter_value_of_unregistered_is_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0

    def test_total_sums_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("c", host="a").inc(3)
        registry.counter("c", host="b").inc(4)
        registry.counter("other").inc(100)
        assert registry.total("c") == 7

    def test_snapshot_flattens_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(1.0)
        kinds = [row.kind for row in registry.snapshot()]
        assert kinds == ["counter", "gauge", "histogram"]

    def test_render_table_names_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("events", kind="x").inc(9)
        registry.histogram("latency").observe(0.5)
        table = registry.render_table()
        assert "events{kind=x}" in table
        assert "value=9" in table
        assert "latency" in table
        assert "p50=0.5" in table

    def test_render_table_empty_registry(self):
        assert "no metrics" in MetricsRegistry().render_table()


def test_format_labels():
    assert format_labels(()) == ""
    assert format_labels((("a", "1"), ("b", "2"))) == "{a=1,b=2}"
