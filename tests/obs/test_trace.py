"""Unit tests for the structured trace log."""

import pytest

from repro.obs.trace import EventType, TraceLog


class TestRecordAndQuery:
    def test_record_returns_typed_event(self):
        log = TraceLog(10_000)
        event = log.record(1.5, EventType.ROUTE_INSTALLED, "srv", window=40)
        assert event.time == 1.5
        assert event.type is EventType.ROUTE_INSTALLED
        assert event.detail("window") == 40
        assert event.detail("absent", default="d") == "d"

    def test_format_is_readable(self):
        log = TraceLog(10_000)
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
        assert log.totals() == {EventType.CONN_OPENED: 5}

    def test_recorded_and_dropped_counters(self):
        log = TraceLog(capacity=3)
        assert log.recorded == 0 and log.dropped == 0
        for i in range(5):
            log.record(float(i), EventType.CONN_OPENED, "a")
        assert log.recorded == 5
        assert log.dropped == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=0)
