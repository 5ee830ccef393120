"""Unit tests for the time-series sampler store."""

import pytest

from repro.obs.timeline import Timeline


class TestRecordAndQuery:
    def test_points_keep_record_order(self):
        timeline = Timeline(200_000)
        timeline.record(0.0, "srv", "installed_routes", 2)
        timeline.record(2.0, "srv", "installed_routes", 3)
        values = [p.value for p in timeline.points()]
        assert values == [2.0, 3.0]

    def test_series_names_are_sorted_pairs(self):
        timeline = Timeline(200_000)
        timeline.record(0.0, "b", "x", 1.0)
        timeline.record(0.0, "a", "y", 1.0)
        assert timeline.series_names() == ["a:y", "b:x"]


class TestCapacityAndMerge:
    def test_drop_newest_counts_overflow(self):
        timeline = Timeline(capacity=2)
        for i in range(4):
            timeline.record(float(i), "s", "x", i)
        assert len(timeline) == 2
        assert timeline.recorded == 4
        assert timeline.dropped == 2
        assert [p.time for p in timeline.points()] == [0.0, 1.0]

    def test_merge_matches_serial_retention(self):
        serial = Timeline(capacity=3)
        for i in range(4):
            serial.record(float(i), "s", "x", i)

        first, second = Timeline(200_000), Timeline(200_000)
        first.record(0.0, "s", "x", 0)
        first.record(1.0, "s", "x", 1)
        second.record(2.0, "s", "x", 2)
        second.record(3.0, "s", "x", 3)
        target = Timeline(capacity=3)
        target.merge_from(first)
        target.merge_from(second)

        assert [(p.time, p.value) for p in target.points()] == [
            (p.time, p.value) for p in serial.points()
        ]
        assert target.recorded == serial.recorded
        assert target.dropped == serial.dropped

    def test_dropped_counter_survives_merge_overflow(self):
        source = Timeline(capacity=4)
        for i in range(4):
            source.record(float(i), "s", "x", i)
        target = Timeline(capacity=2)
        target.record(10.0, "s", "x", 10)
        target.merge_from(source)
        assert len(target) == 2
        assert target.recorded == 5
        assert target.dropped == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Timeline(capacity=0)
