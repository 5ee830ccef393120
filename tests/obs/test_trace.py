"""Unit tests for the structured trace log."""

import pytest

from repro.obs.trace import EventType, TraceLog


class TestRecordAndQuery:
    def test_record_returns_typed_event(self):
        log = TraceLog()
        event = log.record(1.5, EventType.ROUTE_INSTALLED, "srv", window=40)
        assert event.time == 1.5
        assert event.type is EventType.ROUTE_INSTALLED
        assert event.detail("window") == 40
        assert event.detail("absent", default="d") == "d"

    def test_filter_by_type_source_and_time(self):
        log = TraceLog()
        log.record(0.0, EventType.CONN_OPENED, "a")
        log.record(1.0, EventType.CONN_OPENED, "b")
        log.record(2.0, EventType.RTO_FIRED, "a")
        assert len(log.events(type=EventType.CONN_OPENED)) == 2
        assert len(log.events(source="a")) == 2
        assert len(log.events(since=1.0)) == 2
        assert len(log.events(type=EventType.RTO_FIRED, source="b")) == 0

    def test_last_overall_and_per_type(self):
        log = TraceLog()
        assert log.last() is None
        log.record(0.0, EventType.CONN_OPENED, "a")
        log.record(1.0, EventType.RTO_FIRED, "a")
        assert log.last().type is EventType.RTO_FIRED
        assert log.last(EventType.CONN_OPENED).time == 0.0
        assert log.last(EventType.ROUTE_EXPIRED) is None

    def test_format_is_readable(self):
        log = TraceLog()
        event = log.record(2.0, EventType.ROUTE_EXPIRED, "srv", destination="10.0.0.1/32")
        assert "route_expired" in event.format()
        assert "destination=10.0.0.1/32" in event.format()


class TestRingAndTotals:
    def test_ring_drops_oldest_but_totals_do_not(self):
        log = TraceLog(capacity=3)
        for i in range(5):
            log.record(float(i), EventType.CONN_OPENED, "a")
        assert len(log) == 3
        assert [e.time for e in log.events()] == [2.0, 3.0, 4.0]
        assert log.count(EventType.CONN_OPENED) == 5
        assert log.totals() == {EventType.CONN_OPENED: 5}

    def test_recorded_and_dropped_counters(self):
        log = TraceLog(capacity=3)
        assert log.recorded == 0 and log.dropped == 0
        for i in range(5):
            log.record(float(i), EventType.CONN_OPENED, "a")
        assert log.recorded == 5
        assert log.dropped == 2

    def test_count_of_unseen_type_is_zero(self):
        assert TraceLog().count(EventType.RTO_FIRED) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=0)
