"""Tests for CSV export helpers."""

import csv
import io

import pytest

from repro.analysis.export import rows_to_csv


def parse(text):
    return list(csv.reader(io.StringIO(text)))


class TestRowsToCsv:
    def test_header_and_rows(self):
        text = rows_to_csv(("a", "b"), [(1, 2), (3, 4)])
        parsed = parse(text)
        assert parsed[0] == ["a", "b"]
        assert parsed[1] == ["1", "2"]
        assert len(parsed) == 3

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            rows_to_csv(("a", "b"), [(1,)])

    def test_quoting_of_commas(self):
        text = rows_to_csv(("x",), [("hello, world",)])
        assert parse(text)[1] == ["hello, world"]


class TestObsExports:
    def test_trace_to_json_carries_drop_counters(self):
        import json

        from repro.analysis.export import trace_to_json
        from repro.obs.trace import EventType, TraceLog

        log = TraceLog(capacity=1)
        log.record(0.0, EventType.CONN_OPENED, "a")
        log.record(1.0, EventType.CONN_OPENED, "a")
        payload = json.loads(trace_to_json(log))
        assert payload["recorded"] == 2
        assert payload["retained"] == 1
        assert payload["dropped"] == 1
        assert len(payload["events"]) == 1

    def test_flows_jsonl_and_json(self):
        import json

        from repro.analysis.export import flows_to_json, flows_to_jsonl
        from repro.obs.flow import FlowLog

        log = FlowLog()
        assert flows_to_jsonl(log) == ""
        for index in range(2):
            log.begin(
                host="srv",
                local="10.0.0.1",
                local_port=8080,
                remote="10.1.0.1",
                remote_port=32768 + index,
                opened_at=float(index),
                is_client=False,
                initial_cwnd=10,
                cwnd_source="default",
            )
        lines = flows_to_jsonl(log).splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["flow_id"] == 0
        payload = json.loads(flows_to_json(log))
        assert payload["recorded"] == 2
        assert payload["dropped"] == 0
        assert [f["flow_id"] for f in payload["flows"]] == [0, 1]

    def test_flows_json_time_window(self):
        import json

        from repro.analysis.export import flows_to_json
        from repro.obs.flow import FlowLog

        log = FlowLog()
        early = log.begin(
            host="srv",
            local="10.0.0.1",
            local_port=8080,
            remote="10.1.0.1",
            remote_port=32768,
            opened_at=1.0,
            is_client=False,
            initial_cwnd=10,
            cwnd_source="default",
        )
        early.closed_at = 2.0
        log.begin(
            host="srv",
            local="10.0.0.1",
            local_port=8080,
            remote="10.1.0.1",
            remote_port=32769,
            opened_at=10.0,
            is_client=False,
            initial_cwnd=10,
            cwnd_source="default",
        )
        payload = json.loads(flows_to_json(log, since=5.0))
        assert payload["recorded"] == 2
        assert payload["selected"] == 1
        assert [f["flow_id"] for f in payload["flows"]] == [1]

    def test_timeline_to_csv(self):
        from repro.analysis.export import timeline_to_csv
        from repro.obs.timeline import Timeline

        timeline = Timeline()
        timeline.record(2.0, "srv", "installed_routes", 3)
        parsed = parse(timeline_to_csv(timeline))
        assert parsed[0] == ["time", "source", "series", "value"]
        assert parsed[1] == ["2", "srv", "installed_routes", "3"]


class TestPrometheusExposition:
    def _registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("tcp_connections_opened").inc(3)
        registry.counter("riptide_clamp_hits", bound="c_max").inc()
        registry.counter("riptide_clamp_hits", bound="c_min").inc(2)
        registry.gauge("faults_active").set(1.5)
        histogram = registry.histogram("probe_completion_time", bucket="short")
        for value in (0.1, 0.2, 0.3, 0.4):
            histogram.observe(value)
        return registry

    def test_families_typed_once_and_sorted(self):
        from repro.analysis.export import metrics_to_prometheus

        text = metrics_to_prometheus(self._registry())
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines.count("# TYPE riptide_clamp_hits counter") == 1
        assert "# TYPE faults_active gauge" in lines
        assert "# TYPE probe_completion_time summary" in lines
        # Series sorted within the family: c_max before c_min.
        c_max = lines.index('riptide_clamp_hits{bound="c_max"} 1')
        c_min = lines.index('riptide_clamp_hits{bound="c_min"} 2')
        assert c_max < c_min

    def test_histogram_exports_as_summary(self):
        from repro.analysis.export import metrics_to_prometheus

        text = metrics_to_prometheus(self._registry())
        assert 'probe_completion_time{bucket="short",quantile="0.5"} 0.3' in text
        assert 'probe_completion_time{bucket="short",quantile="0.9"} 0.4' in text
        assert 'probe_completion_time_sum{bucket="short"} 1' in text
        assert 'probe_completion_time_count{bucket="short"} 4' in text

    def test_label_values_escaped(self):
        from repro.analysis.export import metrics_to_prometheus
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("odd_labels", source='a"b\\c\nd').inc()
        text = metrics_to_prometheus(registry)
        assert 'odd_labels{source="a\\"b\\\\c\\nd"} 1' in text

    def test_empty_registry_is_empty_output(self):
        from repro.analysis.export import metrics_to_prometheus
        from repro.obs.metrics import MetricsRegistry

        assert metrics_to_prometheus(MetricsRegistry()) == ""

    def test_non_finite_values_use_the_format_spellings(self):
        """One sample at infinity must not cost the whole exposition."""
        from repro.analysis.export import metrics_to_prometheus
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.gauge("unbounded").set(float("inf"))
        registry.gauge("bottomless").set(float("-inf"))
        registry.gauge("undefined").set(float("nan"))
        registry.gauge("finite").set(2.0)
        histogram = registry.histogram("stalled_for")
        for value in (0.5, float("inf"), float("inf")):
            histogram.observe(value)
        lines = metrics_to_prometheus(registry).splitlines()
        assert "unbounded +Inf" in lines
        assert "bottomless -Inf" in lines
        assert "undefined NaN" in lines
        assert "finite 2" in lines
        assert 'stalled_for{quantile="0.5"} +Inf' in lines
        assert "stalled_for_sum +Inf" in lines
        assert "stalled_for_count 3" in lines


# ----------------------------------------------------------------------
# Whole-payload references for the record-list documents
# ----------------------------------------------------------------------
#
# Both goldens, ``TestHashSeedIndependence``, CI's ``cmp`` smokes and the
# benchmark's ``artifact_sha256`` digests hash the exporters' text, so
# however the exporters come to build it, it must stay byte for byte what
# encoding the whole payload in one ``json.dumps`` call gives.  The
# builders below are that whole-payload form, kept verbatim as the
# reference; every comparison is ``==`` on the text.


def reference_metrics_to_json(registry):
    import json

    payload = [
        {
            "kind": row.kind,
            "metric": row.name,
            "labels": dict(row.labels),
            **dict(row.fields),
        }
        for row in registry.snapshot()
    ]
    return json.dumps(payload, indent=2)


def reference_trace_to_json(log):
    import json

    payload = {
        "recorded": log.recorded,
        "retained": len(log),
        "dropped": log.dropped,
        "totals": {event_type.value: count for event_type, count in sorted(
            log.totals().items(), key=lambda item: item[0].value
        )},
        "events": [
            {
                "time": event.time,
                "type": event.type.value,
                "source": event.source,
                "details": {k: v for k, v in event.details.items()},
            }
            for event in log.events()
        ],
    }
    return json.dumps(payload, indent=2)


def reference_flows_to_jsonl(flows, since=None, until=None):
    import json

    records = flows.records(since=since, until=until)
    return "\n".join(
        json.dumps(record.to_dict(), separators=(",", ":"))
        for record in records
    ) + ("\n" if records else "")


def reference_flows_to_json(flows, since=None, until=None):
    import json

    records = flows.records(since=since, until=until)
    payload = {
        "recorded": flows.recorded,
        "retained": len(flows),
        "dropped": flows.dropped,
        "selected": len(records),
        "flows": [record.to_dict() for record in records],
    }
    return json.dumps(payload, indent=2)


def reference_chrome_trace(spans):
    tids = {
        source: tid
        for tid, source in enumerate(
            sorted({span.source for span in spans.spans()}), start=1
        )
    }
    events = []
    for span in spans.spans():
        args = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update({key: value for key, value in span.details.items()})
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "X" if span.end is not None else "B",
            "ts": span.begin * 1e6,
            "pid": 1,
            "tid": tids[span.source],
            "args": args,
        }
        if span.end is not None:
            event["dur"] = (span.end - span.begin) * 1e6
        events.append(event)
    return events


def reference_spans_to_chrome_json(spans):
    import json

    payload = {
        "traceEvents": reference_chrome_trace(spans),
        "displayTimeUnit": "ms",
    }
    return json.dumps(payload, indent=2)


#: Detail values an ``indent=2`` encoder treats differently from a plain
#: scalar: containers (nested indentation), the three JSON literals,
#: non-finite floats, and strings whose escapes matter to any re-indenting.
AWKWARD_DETAILS = {
    "nested": {"a": [1, 2, {"b": []}], "c": {}},
    "listed": [[1.5, "x"], [], [None]],
    "nothing": None,
    "yes": True,
    "no": False,
    "inf": float("inf"),
    "neg_inf": float("-inf"),
    "nan": float("nan"),
    "newline": "a\nb",
    "indented": "a\n    b\r\n\tc",
    "quote": '"',
    "backslash": "\\n",
    "accent": "é",
    "astral": "\U0001f30a",
    "empty": "",
}


def _begin_flow(log, index, opened_at, closed_at=None):
    record = log.begin(
        host="srv-é" if index % 2 else "srv",
        local="10.0.0.1",
        local_port=8080,
        remote="10.1.0.1",
        remote_port=32768 + index,
        opened_at=opened_at,
        is_client=bool(index % 2),
        initial_cwnd=10 + index,
        cwnd_source="route" if index % 2 else "default",
    )
    if record is not None and closed_at is not None:
        record.established_at = opened_at + 0.05
        record.syn_rtt = 0.05
        record.closed_at = closed_at
        record.final_state = "TIME_WAIT"
        record.error = 'reset by "peer"\n' if index == 2 else None
        record.bytes_acked = 1000 * index
    return record


class TestTraceJsonMatchesWholePayload:
    def _check(self, log):
        from repro.analysis.export import trace_to_json

        assert trace_to_json(log) == reference_trace_to_json(log)

    def test_empty_log(self):
        from repro.analysis.export import trace_to_json
        from repro.obs.trace import TraceLog

        log = TraceLog()
        self._check(log)
        assert trace_to_json(log).endswith('"totals": {},\n  "events": []\n}')

    def test_one_event(self):
        from repro.obs.trace import EventType, TraceLog

        log = TraceLog()
        log.record(1.5, EventType.ROUTE_INSTALLED, "srv", window=40, ttl=600)
        self._check(log)

    def test_event_without_details(self):
        from repro.obs.trace import EventType, TraceLog

        log = TraceLog()
        log.record(0.0, EventType.CONN_OPENED, "a")
        log.record(0.25, EventType.RTO_FIRED, "b")
        self._check(log)

    def test_ring_that_wrapped(self):
        from repro.obs.trace import EventType, TraceLog

        log = TraceLog(capacity=3)
        for index in range(8):
            event_type = (EventType.CONN_OPENED, EventType.RTO_FIRED)[index % 2]
            log.record(index / 7, event_type, f"host{index % 3}", index=index)
        assert log.dropped == 5
        self._check(log)

    def test_awkward_details(self):
        from repro.obs.trace import EventType, TraceLog

        log = TraceLog()
        log.record(2.0, EventType.TOOL_ERROR, 'src "é"\n', **AWKWARD_DETAILS)
        log.record(1e-9, EventType.FAULT_INJECTED, "", **AWKWARD_DETAILS)
        self._check(log)

    @pytest.mark.parametrize("events", [63, 64, 65, 128, 129, 300])
    def test_many_events(self, events):
        """However the encoder is fed, the seams between feeds must not show."""
        from repro.obs.trace import EventType, TraceLog

        log = TraceLog()
        types = list(EventType)
        for index in range(events):
            details = AWKWARD_DETAILS if index % 50 == 7 else {"n": index}
            log.record(
                index * 0.125, types[index % len(types)], f"host{index % 5}", **details
            )
        self._check(log)

    def test_merged_logs(self):
        from repro.obs.trace import EventType, TraceLog

        left, right = TraceLog(capacity=4), TraceLog(capacity=4)
        for index in range(3):
            left.record(float(index), EventType.CONN_OPENED, "l", n=index)
            right.record(index + 0.5, EventType.GUARD_TRIPPED, "r", why=[index])
        left.merge_from(right)
        assert left.dropped == 2
        self._check(left)


class TestTraceEventRecord:
    def test_pickle_round_trip(self):
        import pickle

        from repro.obs.trace import EventType, TraceLog

        log = TraceLog()
        event = log.record(
            1.5, EventType.ROUTE_INSTALLED, "srv", window=40, why={"a": [1, None]}
        )
        def fields(event):
            return event.time, event.type, event.source, event.details

        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(event, protocol))
            assert fields(clone) == fields(event)
            assert clone.type is EventType.ROUTE_INSTALLED
        clones = pickle.loads(pickle.dumps(log))
        assert [fields(e) for e in clones.events()] == [fields(e) for e in log.events()]
        assert clones.totals() == log.totals()

    def test_immutable(self):
        import dataclasses

        from repro.obs.trace import EventType, TraceLog

        event = TraceLog().record(0.0, EventType.CONN_OPENED, "a")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.time = 1.0


class TestSpansJsonMatchesWholePayload:
    def _check(self, log):
        from repro.analysis.export import spans_to_chrome_json

        assert list(log.iter_chrome_trace()) == reference_chrome_trace(log)
        assert spans_to_chrome_json(log) == reference_spans_to_chrome_json(log)

    def test_empty_log(self):
        from repro.analysis.export import spans_to_chrome_json
        from repro.obs.span import SpanLog

        log = SpanLog()
        self._check(log)
        assert spans_to_chrome_json(log) == (
            '{\n  "traceEvents": [],\n  "displayTimeUnit": "ms"\n}'
        )

    def test_one_closed_span(self):
        from repro.obs.span import SpanLog

        log = SpanLog()
        span = log.begin(1.0, "poll", "agent", "srv", rows=12)
        log.end(span, 1.25, installed=3)
        self._check(log)

    def test_open_span_has_no_duration(self):
        import json

        from repro.analysis.export import spans_to_chrome_json
        from repro.obs.span import SpanLog

        log = SpanLog()
        log.begin(1.0, "hold", "guard", "srv")
        self._check(log)
        (event,) = json.loads(spans_to_chrome_json(log))["traceEvents"]
        assert event["ph"] == "B"
        assert "dur" not in event

    def test_parent_and_tracks(self):
        from repro.obs.span import SpanLog

        log = SpanLog()
        tick = log.begin(0.5, "tick", "agent", "zeta")
        trip = log.begin(0.6, "trip", "guard", "alpha", parent=tick, loss=0.25)
        log.end(trip, 0.7)
        log.begin(0.8, "probe", "probe", "zeta", parent=trip)
        log.end(tick, 0.9, rows=0)
        self._check(log)

    def test_awkward_details_and_a_repeated_key(self):
        from repro.obs.span import SpanLog

        log = SpanLog()
        span = log.begin(0.0, 'n"\n', "é", "s\n", **AWKWARD_DETAILS)
        log.end(span, float("inf"), nested="overwritten at end", span_id="shadow")
        self._check(log)

    @pytest.mark.parametrize("spans", [63, 64, 65, 128, 129, 300])
    def test_many_spans(self, spans):
        from repro.obs.span import SpanLog

        log = SpanLog()
        parent = None
        for index in range(spans):
            span = log.begin(
                index * 0.5, f"s{index % 3}", "agent", f"host{index % 7}",
                parent=parent if index % 4 == 1 else None, n=index,
            )
            if index % 9:
                log.end(span, index * 0.5 + 0.25, done=[index, None])
            parent = span
        self._check(log)

    def test_past_capacity(self):
        from repro.obs.span import SpanLog

        log = SpanLog(capacity=2)
        for index in range(4):
            log.end(log.begin(float(index), "s", "c", f"h{index}"), index + 0.5)
        assert log.dropped == 2
        self._check(log)


class TestFlowsMatchWholePayload:
    WINDOWS = (
        (None, None),
        (5.0, None),
        (None, 2.5),
        (1.5, 10.0),
        (None, 0.5),
    )

    def _check(self, log):
        from repro.analysis.export import flows_to_json, flows_to_jsonl

        for since, until in self.WINDOWS:
            assert flows_to_jsonl(log, since=since, until=until) == (
                reference_flows_to_jsonl(log, since, until)
            )
            assert flows_to_json(log, since=since, until=until) == (
                reference_flows_to_json(log, since, until)
            )

    def test_empty_log(self):
        from repro.analysis.export import flows_to_json, flows_to_jsonl
        from repro.obs.flow import FlowLog

        log = FlowLog()
        self._check(log)
        assert flows_to_jsonl(log) == ""
        assert flows_to_json(log).endswith('"selected": 0,\n  "flows": []\n}')

    def test_one_open_record(self):
        from repro.analysis.export import flows_to_jsonl
        from repro.obs.flow import FlowLog

        log = FlowLog()
        _begin_flow(log, 0, opened_at=1.0)
        self._check(log)
        assert flows_to_jsonl(log).count("\n") == 1

    def test_windows_over_several_records(self):
        from repro.analysis.export import flows_to_jsonl
        from repro.obs.flow import FlowLog

        log = FlowLog()
        _begin_flow(log, 0, opened_at=1.0, closed_at=2.0)
        _begin_flow(log, 1, opened_at=2.0, closed_at=6.0)
        _begin_flow(log, 2, opened_at=3.0, closed_at=3.5)
        _begin_flow(log, 3, opened_at=10.0)
        self._check(log)
        # The window selects, so the cases above are not all one text.
        assert flows_to_jsonl(log, since=5.0) != flows_to_jsonl(log)
        assert flows_to_jsonl(log, until=0.5) == ""

    @pytest.mark.parametrize("flows", [63, 64, 65, 128, 129, 300])
    def test_many_records(self, flows):
        from repro.obs.flow import FlowLog

        log = FlowLog()
        for index in range(flows):
            _begin_flow(
                log, index, opened_at=index * 0.05,
                closed_at=index * 0.05 + 1.0 if index % 3 else None,
            )
        self._check(log)

    def test_past_capacity(self):
        from repro.obs.flow import FlowLog

        log = FlowLog(capacity=2)
        for index in range(5):
            _begin_flow(log, index, opened_at=float(index), closed_at=index + 0.5)
        assert log.dropped == 3
        self._check(log)


class TestMetricsJsonMatchesWholePayload:
    def _check(self, registry):
        from repro.analysis.export import metrics_to_json

        assert metrics_to_json(registry) == reference_metrics_to_json(registry)

    def test_empty_registry(self):
        from repro.analysis.export import metrics_to_json
        from repro.obs.metrics import MetricsRegistry

        self._check(MetricsRegistry())
        assert metrics_to_json(MetricsRegistry()) == "[]"

    def test_one_counter(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("tcp_connections_opened").inc(3)
        self._check(registry)

    def test_labelled_histogram_beside_other_kinds(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("riptide_clamp_hits", bound="c_max").inc()
        registry.counter("riptide_clamp_hits", bound='c"min\n').inc(2)
        registry.gauge("faults_active", scope="é").set(1.5)
        registry.gauge("unbounded").set(float("inf"))
        registry.gauge("undefined").set(float("nan"))
        histogram = registry.histogram(
            "probe_completion_time", bucket="short", pop="LHR"
        )
        for value in (0.1, 0.2, 0.3, 0.4):
            histogram.observe(value)
        registry.histogram("never_observed", bucket="long")
        self._check(registry)

    @pytest.mark.parametrize("instruments", [63, 64, 65, 128, 129, 300])
    def test_many_instruments(self, instruments):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for index in range(instruments):
            if index % 3 == 0:
                registry.counter("c", shard=str(index)).inc(index)
            elif index % 3 == 1:
                registry.gauge("g", shard=str(index)).set(index / 7)
            else:
                registry.histogram("h", shard=str(index)).observe(index / 3)
        self._check(registry)
