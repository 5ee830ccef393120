"""A ceiling on the memory an export holds live per byte it writes.

``trace_to_json`` and ``spans_to_chrome_json`` turn a whole record store
into one JSON text, and what that costs in memory is set by how much of
the document exists as Python objects at once: the record dicts, and —
under ``indent=2``, which runs ``json``'s pure-Python encoder — every
token of the output as a list element until the final join.  On the
benchmark's ``chaos_forensics`` the exporters run last, on top of
everything the run retained, so their working set *is* the process's
peak RSS; and it scales with the store, not with the run (a full
50,000-event ring writes 12 MB).

This test fills a 20,000-event ``TraceLog`` and a 5,000-span ``SpanLog``
with fixed synthetic records and, under ``tracemalloc``, reads the peak
traced bytes over the level before the call, divided by the length of
the (ASCII) text returned — bytes live per byte written, the returned
text itself included — and holds both ratios under a recorded ceiling.
It is the sibling of ``tests/tcp/test_hot_path_frames.py`` and
``tests/cdn/test_background_plane_frames.py`` for the forensic plane.

The text lengths are pinned beside the ratios: a smaller working set
must never be a record or a field dropped in disguise (and
``tests/analysis/test_export.py`` holds the text itself, ``==``, against
the whole-payload encoding).

Re-measure (prints both figures)::

    PYTHONPATH=src python tests/analysis/test_export_working_set.py

Measured on CPython 3.11, bytes live per byte written:

===========================================  ==============  ======================
                                             trace_to_json   spans_to_chrome_json
===========================================  ==============  ======================
one ``json.dumps(whole_payload, indent=2)``  8.85            9.58
one record a call, texts joined              2.28            2.21
64 records a call, texts joined              2.01            2.03
===========================================  ==============  ======================

What is left is the list of encoded texts plus their join (2.0) and the
tokens of the one run of records in the encoder.  (One record a call
reads the same here but ran slower than the whole-payload call: the
encoder rebuilds its closures on every call.)
"""

from __future__ import annotations

import tracemalloc
from collections.abc import Callable

import pytest

from repro.analysis.export import spans_to_chrome_json, trace_to_json
from repro.obs.span import SpanLog
from repro.obs.trace import EventType, TraceLog

TRACE_EVENTS = 20_000
SPANS = 5_000
#: What the two documents below amount to, whatever they cost to build.
TRACE_TEXT_BYTES = 4_869_113
SPANS_TEXT_BYTES = 1_614_988

#: Peak bytes live per byte written; see the table above.  The margin is
#: for interpreter versions (object sizes move a little), not for a
#: third copy of the document: one more copy of the text costs 1.0.
CEILINGS = {"trace_to_json": 3.0, "spans_to_chrome_json": 3.0}


def full_trace_log() -> TraceLog:
    """A ring of route, loss and guard events shaped like a chaos run's."""
    log = TraceLog(capacity=TRACE_EVENTS)
    for index in range(TRACE_EVENTS):
        time = index * 0.0025
        host = f"edge-{index % 34:02d}-srv{index % 3}"
        destination = f"10.{index % 34}.{index % 200}.0/24"
        if index % 4 == 0:
            log.record(
                time, EventType.ROUTE_INSTALLED, host,
                destination=destination, window=10 + index % 90, ttl=90.0,
            )
        elif index % 4 == 1:
            log.record(
                time, EventType.RTO_FIRED, host,
                local_port=8080, remote=f"10.{index % 34}.0.{index % 250}",
                remote_port=32768 + index % 20000, rto=0.2 + (index % 7) * 0.1,
                backoff=index % 5,
            )
        elif index % 4 == 2:
            log.record(
                time, EventType.CONN_OPENED, host,
                remote=f"10.{index % 34}.0.{index % 250}",
                initial_cwnd=10 + index % 90, cwnd_source="route",
            )
        else:
            log.record(
                time, EventType.GUARD_TRIPPED, host,
                destination=destination, loss_rate=(index % 100) / 1000.0,
                held=[destination, index % 90], released=None,
            )
    return log


def full_span_log() -> SpanLog:
    """Poll ticks with a probe or guard child each, one in fifty left open."""
    log = SpanLog()
    for index in range(SPANS // 2):
        begin = index * 0.01
        host = f"edge-{index % 34:02d}-srv{index % 3}"
        tick = log.begin(begin, "poll_tick", "agent", host, interval=2.0)
        child = log.begin(
            begin + 0.001, "probe" if index % 2 else "guard_hold",
            "probe" if index % 2 else "guard", host, parent=tick,
            destination=f"10.{index % 34}.{index % 200}.0/24",
            size_bytes=(10_000, 50_000, 100_000)[index % 3],
        )
        if index % 50:
            log.end(child, begin + 0.004, completed=True, rounds=index % 6)
        log.end(tick, begin + 0.005, rows=index % 400, installed=index % 7)
    return log


def live_bytes_per_byte_written(export: Callable[[], str]) -> tuple[float, int]:
    """Peak traced bytes over the starting level, per character of the text."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        text = export()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.isascii()
    return (peak - before) / len(text), len(text)


def measure() -> dict[str, tuple[float, int]]:
    trace, spans = full_trace_log(), full_span_log()
    assert (len(trace), trace.dropped) == (TRACE_EVENTS, 0)
    assert (len(spans), spans.dropped) == (SPANS, 0)
    return {
        "trace_to_json": live_bytes_per_byte_written(lambda: trace_to_json(trace)),
        "spans_to_chrome_json": live_bytes_per_byte_written(
            lambda: spans_to_chrome_json(spans)
        ),
    }


@pytest.fixture(scope="module")
def measured() -> dict[str, tuple[float, int]]:
    return measure()


@pytest.mark.parametrize(
    ("exporter", "text_bytes"),
    [("trace_to_json", TRACE_TEXT_BYTES), ("spans_to_chrome_json", SPANS_TEXT_BYTES)],
)
def test_live_bytes_per_byte_written(
    measured: dict[str, tuple[float, int]], exporter: str, text_bytes: int
) -> None:
    ratio, written = measured[exporter]
    assert written == text_bytes
    assert ratio <= CEILINGS[exporter]


if __name__ == "__main__":
    for name, (ratio, written) in measure().items():
        print(f"{name}: {ratio:.2f} bytes live per byte written ({written:,} bytes)")
