"""The retention/merge contract shared by the five drop-newest stores.

One seeded random record stream is split into 1-4 chunks; each chunk is
recorded into its own log and the logs are merged in order.  The merged
log must equal the log that recorded the whole stream serially — ids,
span parent ids, retained records, ``len``, ``dropped`` and the
untruncated count — at capacities below, at and above the stream
length.  Only the stores' public API is used, so the suite is an oracle
for any rewrite of what is underneath.
"""

import random
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.obs.flow import FlowLog
from repro.obs.slo import AlertLog, BurnRateRule
from repro.obs.span import SpanLog
from repro.obs.timeline import Timeline
from repro.obs.tsdb import WindowedStore

STREAM_LENGTH = 24
CAPACITIES = (1, 7, STREAM_LENGTH - 1, STREAM_LENGTH, STREAM_LENGTH + 1, 10 * STREAM_LENGTH)
SOURCES = ("lhr:a", "fra:a", "lhr:b")
SERIES = ("probe_latency", "route_staleness")
WINDOW = 5.0

_RULES = (
    BurnRateRule(severity="page", long_window=15.0, short_window=5.0, burn_factor=2.0),
    BurnRateRule(severity="ticket", long_window=30.0, short_window=10.0, burn_factor=1.0),
)


def _sample_op(rng: random.Random, index: int, chunk_start: int) -> tuple:
    return (
        float(index) + rng.random(),
        rng.choice(SOURCES),
        rng.choice(SERIES),
        rng.choice((rng.random() * 100.0, float(rng.randrange(50)), rng.randrange(50))),
    )


def _flow_op(rng: random.Random, index: int, chunk_start: int) -> tuple:
    return (rng.choice(SOURCES), 32768 + index, float(index), rng.random() < 0.5)


def _span_op(rng: random.Random, index: int, chunk_start: int) -> tuple:
    # A parent is an earlier span of the same chunk (one worker's log),
    # addressed by its position in that chunk.
    parent = None
    if index > chunk_start and rng.random() < 0.6:
        parent = rng.randrange(chunk_start, index) - chunk_start
    return (float(index), rng.choice(("tick", "probe")), rng.choice(SOURCES), parent,
            rng.random() < 0.7)


def _alert_op(rng: random.Random, index: int, chunk_start: int) -> tuple:
    return (float(index), rng.choice(SERIES), rng.choice(SOURCES), rng.randrange(len(_RULES)),
            rng.random() < 0.5)


def _record_samples(log, chunk) -> None:
    for time, source, series, value in chunk:
        log.record(time, source, series, value)


def _record_flows(log: FlowLog, chunk) -> None:
    for host, port, opened_at, is_client in chunk:
        record = log.begin(
            host=host,
            local="10.0.0.1",
            local_port=8080,
            remote="10.1.0.1",
            remote_port=port,
            opened_at=opened_at,
            is_client=is_client,
            initial_cwnd=10,
            cwnd_source="default",
        )
        if record is not None and is_client:
            record.closed_at = opened_at + 1.0


def _record_spans(log: SpanLog, chunk) -> None:
    handles = []
    for time, name, source, parent, close in chunk:
        span = log.begin(
            time, name, "agent", source,
            parent=None if parent is None else handles[parent], rows=len(handles),
        )
        handles.append(span)
        if close:
            log.end(span, time + 0.5, ok=True)


def _record_alerts(log: AlertLog, chunk) -> None:
    for time, slo, source, rule, fire in chunk:
        episode = log.begin(time, slo, _RULES[rule].severity, source, _RULES[rule])
        if episode is not None and fire:
            episode.firing_at = time + 1.0


def _sample_view(log) -> dict:
    return {
        "points": [(p.time, p.source, p.series, p.value, type(p.value)) for p in log.points()],
        "series_names": log.series_names(),
        "total": log.recorded,
    }


def _tsdb_view(log: WindowedStore) -> dict:
    view = _sample_view(log)
    view["window_values"] = {
        (source, series, index): log.window_values(source, series, index, WINDOW)
        for source in SOURCES
        for series in SERIES
        for index in range(int(STREAM_LENGTH / WINDOW) + 2)
    }
    view["sources_for"] = [log.sources_for(series) for series in SERIES]
    return view


def _flow_view(log: FlowLog) -> dict:
    return {
        "records": [r.to_dict() for r in log.records()],
        "clients": [r.flow_id for r in log.records(is_client=True)],
        "total": log.next_id,
    }


def _span_view(log: SpanLog) -> dict:
    return {
        "spans": [
            (s.span_id, s.parent_id, s.name, s.source, s.begin, s.end, s.details)
            for s in log.spans()
        ],
        "chrome": list(log.iter_chrome_trace()),
        "open": [s.span_id for s in log.spans() if s.end is None],
        "total": log.next_id,
    }


def _alert_view(log: AlertLog) -> dict:
    return {
        "episodes": [e.to_dict() for e in log.episodes()],
        "fired": log.fired_count,
        "total": log.next_id,
    }


@dataclass(frozen=True)
class StoreCase:
    make: Callable
    op: Callable
    record: Callable
    view: Callable


CASES = {
    "flows": StoreCase(FlowLog, _flow_op, _record_flows, _flow_view),
    "spans": StoreCase(SpanLog, _span_op, _record_spans, _span_view),
    "timeline": StoreCase(Timeline, _sample_op, _record_samples, _sample_view),
    "tsdb": StoreCase(WindowedStore, _sample_op, _record_samples, _tsdb_view),
    "alerts": StoreCase(AlertLog, _alert_op, _record_alerts, _alert_view),
}


def _chunked_stream(case: StoreCase, seed: int, chunks: int) -> list[list[tuple]]:
    """STREAM_LENGTH seeded ops cut at ``chunks - 1`` random points."""
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, STREAM_LENGTH), chunks - 1))
    bounds = [0, *cuts, STREAM_LENGTH]
    return [
        [case.op(rng, index, start) for index in range(start, stop)]
        for start, stop in zip(bounds, bounds[1:])
    ]


def _full_view(case: StoreCase, log) -> dict:
    view = case.view(log)
    view["len"] = len(log)
    view["dropped"] = log.dropped
    return view


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("chunks", (1, 2, 3, 4))
@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("store", sorted(CASES))
def test_merged_chunks_equal_the_serial_log(store, seed, chunks, capacity):
    case = CASES[store]

    serial = case.make(capacity=capacity)
    for chunk in _chunked_stream(case, seed, chunks):
        case.record(serial, chunk)

    merged = case.make(capacity=capacity)
    for chunk in _chunked_stream(case, seed, chunks):
        worker = case.make(capacity=capacity)
        case.record(worker, chunk)
        merged.merge_from(worker)

    expected = _full_view(case, serial)
    assert _full_view(case, merged) == expected
    assert expected["total"] == STREAM_LENGTH
    assert expected["len"] == min(capacity, STREAM_LENGTH)
    assert expected["dropped"] == STREAM_LENGTH - expected["len"]


@pytest.mark.parametrize("capacity", (0, -1))
@pytest.mark.parametrize("store", sorted(CASES))
def test_capacity_below_one_is_rejected(store, capacity):
    with pytest.raises(ValueError, match="capacity must be >= 1"):
        CASES[store].make(capacity=capacity)
