"""Ceilings on the bytes one retained record costs.

A run keeps every trace event (up to the ring's capacity), every span
and every histogram sample until it is summarised, and the paper's probe
study keeps the finished control arm's records alive while the Riptide
arm runs.  What a record costs is therefore what the study's heap grows
by per probe, per poll tick and per closed connection.

This test reads, under ``tracemalloc``, the bytes live after recording
``COUNT`` records over the level before, divided by ``COUNT``, for the
three record shapes the shipped call sites build most:

* a trace event with three details (``CONN_OPENED``: remote, initial
  window, role);
* a span opened with four details and closed with four more (a probe
  span: arm, PoP, size and destination, then outcome, connection, window
  and port);
* one histogram sample.

Each record's times and values are fresh floats and its address detail
is ``str()`` of an address, as the call sites build them; detail keys
and names are shared, as they are in a run.  The sibling of
``tests/cdn/test_fabric_footprint.py`` for the record stores.

Re-measure (prints the three figures)::

    PYTHONPATH=src python tests/obs/test_record_footprint.py

Measured on CPython 3.11:

=========================================  =====  ========  =========
                                           event  4+4 span  histogram
                                                            sample
=========================================  =====  ========  =========
details as a tuple of pairs, timed         385    791       120
histogram copy
details the call's kwargs dict, a sample   280    454       32
its value alone, one text per address
=========================================  =====  ========  =========
"""

from __future__ import annotations

import gc
import tracemalloc
from collections.abc import Callable

from repro.net import IPv4Address
from repro.obs import EventType, Histogram, SpanLog, TraceLog

#: Records per measurement: enough that container growth steps average out.
COUNT = 4_000

#: Bytes per record; see the table above.  The margin is for interpreter
#: versions, not for a new per-record object: a tuple of detail pairs
#: costs ~100 per record, an address string 64, a timed sample copy 88.
EVENT_CEILING = 305
SPAN_CEILING = 495
SAMPLE_CEILING = 35

REMOTE = IPv4Address("10.1.0.1")


def bytes_per_record(setup: Callable[[], object], fill: Callable[[object], None]) -> float:
    """Bytes live after ``fill(store)`` over the level before, per record."""
    store = setup()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fill(store)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (after - before) / COUNT


def fill_trace(log: TraceLog) -> None:
    for index in range(COUNT):
        log.record(
            index * 1e-3, EventType.CONN_OPENED, "client",
            remote=str(REMOTE), initial_cwnd=10, is_client=True,
        )


def fill_spans(log: SpanLog) -> None:
    for index in range(COUNT):
        span = log.begin(
            index * 1e-3, "probe LHR->JFK 100KB", "probe", "client",
            arm="riptide", dst_pop="JFK", size=100_000, dest=str(REMOTE),
        )
        log.end(
            span, index * 1e-3 + 0.25,
            completed=True, new_connection=True, initial_cwnd=10,
            client_port=40_000,
        )


def fill_histogram(histogram: Histogram) -> None:
    for index in range(COUNT):
        histogram.observe(index * 0.5)


def event_bytes() -> float:
    return bytes_per_record(lambda: TraceLog(capacity=COUNT), fill_trace)


def span_bytes() -> float:
    return bytes_per_record(lambda: SpanLog(capacity=COUNT), fill_spans)


def sample_bytes() -> float:
    return bytes_per_record(lambda: Histogram("h"), fill_histogram)


def test_bytes_per_trace_event() -> None:
    assert event_bytes() <= EVENT_CEILING


def test_bytes_per_span() -> None:
    assert span_bytes() <= SPAN_CEILING


def test_bytes_per_histogram_sample() -> None:
    assert sample_bytes() <= SAMPLE_CEILING


if __name__ == "__main__":
    print(f"{event_bytes():,.0f} bytes per 3-detail trace event")
    print(f"{span_bytes():,.0f} bytes per 4 + 4 span")
    print(f"{sample_bytes():,.0f} bytes per histogram sample")
