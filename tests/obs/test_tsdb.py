"""Unit tests for the windowed time-series store."""

import random

import pytest

from repro.obs.metrics import Histogram
from repro.obs.tsdb import WindowedStore


class TestRecordAndFilter:
    def test_points_keep_record_order(self):
        store = WindowedStore(500_000)
        store.record(1.0, "s", "x", 10.0)
        store.record(0.5, "t", "x", 20.0)
        assert [p.value for p in store.points()] == [10.0, 20.0]

    def test_a_sample_older_than_its_keys_last_is_refused(self):
        store = WindowedStore(500_000)
        store.record(1.0, "s", "x", 10.0)
        store.record(1.0, "s", "x", 11.0)  # same instant is in order
        store.record(0.5, "t", "x", 20.0)  # another key keeps its own order
        with pytest.raises(ValueError, match=r"\('s', 'x'\) at t=0.5 .* at t=1.0"):
            store.record(0.5, "s", "x", 30.0)

    def test_sorted_name_helpers(self):
        store = WindowedStore(500_000)
        store.record(0.0, "b", "x", 1.0)
        store.record(0.0, "a", "x", 1.0)
        store.record(0.0, "a", "y", 1.0)
        assert store.series_names() == ["a:x", "a:y", "b:x"]
        assert store.sources_for("x") == ["a", "b"]
        assert store.sources_for("missing") == []


class TestCapacityAndMerge:
    def test_drop_newest_counts_overflow(self):
        store = WindowedStore(capacity=2)
        for i in range(5):
            store.record(float(i), "s", "x", i)
        assert len(store) == 2
        assert store.recorded == 5
        assert store.dropped == 3
        assert [p.time for p in store.points()] == [0.0, 1.0]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            WindowedStore(capacity=0)

    def test_merge_matches_serial_retention(self):
        serial = WindowedStore(capacity=3)
        for i in range(5):
            serial.record(float(i), "s", "x", i)

        first, second = WindowedStore(500_000), WindowedStore(500_000)
        for i in range(2):
            first.record(float(i), "s", "x", i)
        for i in range(2, 5):
            second.record(float(i), "s", "x", i)
        target = WindowedStore(capacity=3)
        target.merge_from(first)
        target.merge_from(second)

        assert [(p.time, p.value) for p in target.points()] == [
            (p.time, p.value) for p in serial.points()
        ]
        assert target.recorded == serial.recorded
        assert target.dropped == serial.dropped

    def test_merged_aggregates_equal_serial_floats(self):
        # fsum at read time: merged stores derive the exact floats the
        # serial run derives, regardless of task split.
        values = [0.1, 0.2, 0.3, 0.7, 1.1, 1.3]
        serial = WindowedStore(500_000)
        for i, v in enumerate(values):
            serial.record(i * 0.1, "s", "x", v)
        first, second = WindowedStore(500_000), WindowedStore(500_000)
        for i, v in enumerate(values[:2]):
            first.record(i * 0.1, "s", "x", v)
        for i, v in enumerate(values[2:], start=2):
            second.record(i * 0.1, "s", "x", v)
        merged = WindowedStore(500_000)
        merged.merge_from(first)
        merged.merge_from(second)
        assert merged.window_sum("s", "x", 0, 5.0) == serial.window_sum("s", "x", 0, 5.0)


class TestWindowDerivations:
    def test_window_values_equal_the_full_scan(self):
        """The bisected window is exactly what filtering the key's whole run
        returns, over random streams, widths and samples on window edges."""
        rng = random.Random(11)
        for _ in range(200):
            width = rng.choice([0.1, 0.25, 0.3, 1.0, 2.5, 5.0, 7.0])
            store, t = WindowedStore(500_000), 0.0
            for _ in range(rng.randrange(0, 60)):
                step = rng.choice([0.0, 0.0, width, width / 3, rng.random() * 2 * width])
                t = rng.choice([t + step, rng.randrange(0, 40) * width])
                t = max(t, store.points()[-1].time if len(store) else 0.0)
                store.record(t, "s", "x", rng.random())
            run = store.points()
            last = run[-1].window(width) if run else 0
            for index in range(-2, last + 3):
                scan = [p.value for p in run if p.window(width) == index]
                assert store.window_values("s", "x", index, width) == scan

    def test_window_values_is_a_fresh_list(self):
        store = WindowedStore(500_000)
        for t, v in ((0.0, 3.0), (1.0, 1.0), (2.0, 2.0)):
            store.record(t, "s", "x", v)
        assert store.percentile("s", "x", 0, 5.0, 50) == 2.0
        assert store.window_values("s", "x", 0, 5.0) == [3.0, 1.0, 2.0]

    def test_window_alignment(self):
        assert WindowedStore.window_index(0.0, 5.0) == 0
        assert WindowedStore.window_index(4.999, 5.0) == 0
        assert WindowedStore.window_index(5.0, 5.0) == 1

    def test_last_is_the_last_recorded_value(self):
        store = WindowedStore(500_000)
        store.record(1.0, "s", "x", 3.0)
        store.record(2.0, "s", "x", 1.0)
        store.record(6.0, "s", "x", 9.0)
        assert store.last("s", "x", 0, 5.0) == 1.0
        assert store.last("s", "x", 1, 5.0) == 9.0
        assert store.last("s", "x", 2, 5.0) is None

    def test_percentile_rounded_rank(self):
        store = WindowedStore(500_000)
        for v in (5.0, 1.0, 3.0, 2.0, 4.0):
            store.record(0.5, "s", "x", v)
        assert store.percentile("s", "x", 0, 5.0, 50.0) == 3.0
        assert store.percentile("s", "x", 0, 5.0, 90.0) == 5.0  # rank round(3.6)
        assert store.percentile("s", "x", 0, 5.0, 80.0) == 4.0  # rank round(3.2)
        assert store.percentile("s", "x", 0, 5.0, 100.0) == 5.0
        assert store.percentile("s", "x", 1, 5.0, 90.0) is None

    def test_percentile_rank_rule_is_the_histograms(self):
        """One rank rule: an SLO threshold and a report percentile over the
        same samples agree (over 1..7, p90 is 6 for both)."""
        store = WindowedStore(500_000)
        histogram = Histogram("h")
        for v in range(1, 8):
            store.record(0.5, "s", "x", float(v))
            histogram.observe(float(v))
        for p in (0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0):
            assert store.percentile("s", "x", 0, 5.0, p) == histogram.percentile(p)
        assert store.percentile("s", "x", 0, 5.0, 90.0) == 6.0

    def test_rate_is_sum_over_width(self):
        store = WindowedStore(500_000)
        store.record(0.5, "s", "trips", 1.0)
        store.record(3.0, "s", "trips", 2.0)
        assert store.rate("s", "trips", 0, 5.0) == pytest.approx(0.6)
        assert store.rate("s", "trips", 1, 5.0) is None

    def test_sum_ratio_with_min_denominator(self):
        store = WindowedStore(500_000)
        store.record(1.0, "s", "retx", 3.0)
        store.record(1.0, "s", "sent", 30.0)
        assert store.sum_ratio("s", "retx", "sent", 0, 5.0) == pytest.approx(0.1)
        # Too little signal: below the min_denominator floor -> no opinion.
        assert store.sum_ratio("s", "retx", "sent", 0, 5.0, min_denominator=50.0) is None
        # Missing numerator or denominator -> no opinion, not zero.
        assert store.sum_ratio("s", "missing", "sent", 0, 5.0) is None
        assert store.sum_ratio("s", "retx", "missing", 0, 5.0) is None
