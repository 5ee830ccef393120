"""A ceiling on the bytes one idle pooled connection costs.

Riptide's premise is that back-office connections are long-lived and
pooled: most of the paper's probes ride a connection that is already
open, and between probes it sits idle in its client's pool.  In a
cluster run those idle connections — a client socket, its server socket,
the pool entry and what the finished exchange left behind — are most of
what the simulation holds, so what one costs is what the study's heap
grows by per connection.

This test reads, under ``tracemalloc``, the bytes live after ``COUNT``
connections each carried one 20 KB transfer and went idle in the pool,
over the level before they were opened, with instrumentation off, and
divides by ``COUNT``.  A warm-up connection opened and closed before the
measurement pays for what the first connection of a run builds once
(queues, loss generators, metric handles).  Beside it, a ``weakref``
check: a finished first transfer must not be kept alive by the
connection that carried it, which stays pooled for the next one.

Re-measure (prints the figure)::

    PYTHONPATH=src python tests/tcp/test_connection_footprint.py

Measured on CPython 3.11:

=========================================================  ==========
                                                           bytes/conn
=========================================================  ==========
a retransmit deque per socket, ``on_established`` kept     6,110
after it fired, a timed copy of each histogram sample
the shared empty retransmit queue while idle,              3,908
``on_established`` dropped once it fired, a histogram
sample its value alone
=========================================================  ==========
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

from repro.cdn.transfer import TransferClient, TransferServer
from repro.obs.instrument import disabled
from repro.testing import TwoHostTestbed

#: Connections per measurement.
COUNT = 50

#: Response size of the one transfer each connection carries.
RESPONSE_BYTES = 20_000

#: Bytes per idle pooled connection; see the table above.  The margin is
#: for interpreter versions, not for a new per-connection object: an
#: empty deque costs 760, the first transfer and its closure ~600.
CEILING = 4_290


def pooled_bed() -> tuple[TwoHostTestbed, TransferClient]:
    """A two-host bed serving transfers, warmed by one closed connection."""
    with disabled():
        bed = TwoHostTestbed()
    TransferServer(bed.server)
    client = TransferClient(bed.client)
    client.fetch(bed.server.address, RESPONSE_BYTES)
    bed.sim.run(until=bed.sim.now + 2.0)
    client.close_idle_connections()
    bed.sim.run(until=bed.sim.now + 2.0)
    assert len(client._pool.get(bed.server.address, [])) == 0
    return bed, client


def open_and_idle(bed: TwoHostTestbed, client: TransferClient, count: int) -> None:
    """Open ``count`` connections at once, one transfer each, run to idle."""
    for _ in range(count):
        client.fetch(bed.server.address, RESPONSE_BYTES)
    bed.sim.run(until=bed.sim.now + 2.0)


def bytes_per_connection() -> float:
    bed, client = pooled_bed()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        open_and_idle(bed, client, COUNT)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(client._pool.get(bed.server.address, [])) == COUNT
    assert client.transfers_completed == COUNT + 1
    assert all(sock.is_idle for sock in bed.client.sockets())
    return (after - before) / COUNT


def test_bytes_per_idle_pooled_connection() -> None:
    assert bytes_per_connection() <= CEILING


def test_a_finished_first_transfer_is_not_kept_by_its_connection() -> None:
    bed, client = pooled_bed()
    first = weakref.ref(client.fetch(bed.server.address, RESPONSE_BYTES))
    bed.sim.run(until=bed.sim.now + 2.0)
    gc.collect()
    assert client.transfers_completed == 2
    assert len(client._pool.get(bed.server.address, [])) == 1
    assert first() is None


if __name__ == "__main__":
    print(f"{bytes_per_connection():,.0f} bytes per idle pooled connection")
