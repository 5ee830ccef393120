"""Unit tests for lifecycle spans and the Chrome trace export."""

import json

import pytest

from repro.obs.span import SpanLog


class TestBeginEnd:
    def test_span_interval_and_details(self):
        log = SpanLog(200_000)
        span = log.begin(1.0, "probe", "probe", "cli", size=100_000)
        assert span.duration is None
        log.end(span, 3.5, completed=True)
        assert span.duration == 2.5
        assert span.detail("size") == 100_000
        assert span.detail("completed") is True
        assert span.detail("absent", default="d") == "d"

    def test_a_key_given_at_begin_and_end_keeps_the_closing_value(self):
        log = SpanLog(200_000)
        span = log.begin(0.0, "probe", "probe", "cli", state="open", size=10)
        log.end(span, 1.0, done=True, state="closed")
        assert span.detail("state") == "closed"
        assert list(span.details.items()) == [
            ("state", "closed"), ("size", 10), ("done", True)
        ]
        (event,) = log.iter_chrome_trace()
        assert event["args"]["state"] == span.detail("state")
        assert list(event["args"]) == ["span_id", "state", "size", "done"]

    def test_parent_causality(self):
        log = SpanLog(200_000)
        tick = log.begin(0.0, "agent poll", "agent", "srv")
        guard = log.begin(0.0, "guard-hold", "guard", "srv", parent=tick)
        assert guard.parent_id == tick.span_id

    def test_end_tolerates_dropped_span(self):
        log = SpanLog(capacity=1)
        log.begin(0.0, "kept", "agent", "srv")
        dropped = log.begin(0.0, "dropped", "agent", "srv")
        assert dropped is None
        log.end(dropped, 1.0)  # must not raise
        assert log.dropped == 1

    def test_filters(self):
        log = SpanLog(200_000)
        probe = log.begin(0.0, "p", "probe", "cli")
        log.begin(0.0, "g", "guard", "srv")
        log.end(probe, 1.0)
        assert log.spans(category="probe") == [probe]
        assert [s.name for s in log.spans(category="guard")] == ["g"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanLog(capacity=0)


class TestMerge:
    def test_merge_renumbers_ids_and_parents(self):
        first, second = SpanLog(200_000), SpanLog(200_000)
        first.begin(0.0, "a", "agent", "x")
        tick = second.begin(0.0, "tick", "agent", "y")
        second.begin(0.0, "guard", "guard", "y", parent=tick)

        target = SpanLog(200_000)
        target.merge_from(first)
        target.merge_from(second)
        spans = target.spans()
        assert [s.span_id for s in spans] == [0, 1, 2]
        assert spans[2].parent_id == spans[1].span_id
        assert target.next_id == 3


class TestChromeTrace:
    def _validated(self, events):
        """Assert the Chrome trace-event schema on every event."""
        for event in events:
            assert isinstance(event["name"], str)
            assert isinstance(event["cat"], str)
            assert event["ph"] in ("X", "B")
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int) and event["tid"] >= 1
            assert isinstance(event["args"], dict)
            assert "span_id" in event["args"]
            if event["ph"] == "X":
                assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
            else:
                assert "dur" not in event
        return events

    def test_closed_and_open_spans_export(self):
        log = SpanLog(200_000)
        closed = log.begin(1.0, "probe", "probe", "cli", arm="riptide")
        log.end(closed, 1.25, completed=True)
        log.begin(2.0, "guard-hold", "guard", "srv")
        events = self._validated(list(log.iter_chrome_trace()))
        assert len(events) == 2
        x, b = events
        assert (x["ph"], b["ph"]) == ("X", "B")
        assert x["ts"] == pytest.approx(1.0e6)
        assert x["dur"] == pytest.approx(0.25e6)
        assert x["args"]["arm"] == "riptide"

    def test_sources_map_to_deterministic_tracks(self):
        log = SpanLog(200_000)
        log.begin(0.0, "b", "agent", "host-b")
        log.begin(0.0, "a", "agent", "host-a")
        events = list(log.iter_chrome_trace())
        # tids follow sorted source order, not begin order.
        assert [e["tid"] for e in events] == [2, 1]

    def test_parent_id_surfaced_in_args(self):
        log = SpanLog(200_000)
        tick = log.begin(0.0, "tick", "agent", "srv")
        child = log.begin(0.0, "guard", "guard", "srv", parent=tick)
        log.end(tick, 1.0)
        log.end(child, 1.0)
        events = list(log.iter_chrome_trace())
        assert events[1]["args"]["parent_id"] == tick.span_id
        assert "parent_id" not in events[0]["args"]

    def test_chrome_json_document_shape(self):
        from repro.analysis.export import spans_to_chrome_json

        log = SpanLog(200_000)
        span = log.begin(0.0, "p", "probe", "cli")
        log.end(span, 1.0)
        payload = json.loads(spans_to_chrome_json(log))
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        assert payload["displayTimeUnit"] == "ms"
        self._validated(payload["traceEvents"])
