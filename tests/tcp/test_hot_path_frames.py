"""A ceiling on the Python frames one delivered packet costs.

The per-packet path (socket -> host -> fabric -> link -> host -> socket)
is where every packet-level experiment spends its time, and in CPython
its price is, to first order, the number of Python frames entered.  This
test counts ``call`` events under ``sys.setprofile`` over one lossless
1 MB exchange and holds the count per delivered packet under a recorded
ceiling, so a helper hop added to the path shows up as a failed test
instead of as a slower benchmark three PRs later.

The kernel event count is pinned beside it: a frame saving must never be
an event change in disguise.  So is how often each hop the benchmark's
tracer bills per packet is entered: once per packet, while path
resolution (``Network.send``) runs once per host and destination.  And
so is how often the frames that left the path are entered: the lossless
wire's loss call never, the counter method and the RTO clamp only while
each endpoint sets its connection up.

Re-measure (prints both figures)::

    PYTHONPATH=src python tests/tcp/test_hot_path_frames.py
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from contextlib import AbstractContextManager
from types import FrameType
from typing import Any

import pytest

from repro.linux.host import Host
from repro.net.link import Link
from repro.net.loss import NoLoss
from repro.net.network import Network
from repro.obs.instrument import capture, disabled
from repro.obs.metrics import Counter
from repro.tcp.constants import TcpConfig
from repro.tcp.rto import RttEstimator
from repro.tcp.socket import TcpSocket
from repro.testing import TwoHostTestbed, request_response

RESPONSE_BYTES = 1_000_000
#: What the exchange below amounts to, whatever it costs to run.
DELIVERED_PACKETS = 1_375
KERNEL_EVENTS = 1_378

#: Frames per delivered packet, by instrumentation mode.  Measured 13.34
#: (disabled) and 15.86 (capture) on CPython 3.11 — 19.11 and 21.63 while
#: the clock, the smoothed RTT and the link's rate were read through
#: frames, every RTT sample entered the RTO clamp, a lossless link called
#: its loss model and the delivered counter went through ``inc()``; 21.61
#: and 24.13 while each packet was a segment wrapped in a packet object
#: and the fabric resolved its path per packet, 24.62 and 27.71 while a link spent two
#: timers per packet, 36.87 and 39.96 before the path was flattened to one
#: frame per step.  The margin is for interpreter versions (the path has
#: no comprehension that 3.12 would inline), not for new helper hops: a
#: hop costs 0.5-1.0.
CEILINGS = {"disabled": 16.75, "capture": 19.25}

#: The hops the benchmark's tracer bills per packet.  Each is entered once
#: per packet: every packet is sent, crosses the trunk and is received.
#: A socket handles all of them but the SYN, which the listener takes.
PER_PACKET = {
    Host.send_packet: DELIVERED_PACKETS,
    Link.transmit: DELIVERED_PACKETS,
    Host.receive_packet: DELIVERED_PACKETS,
    TcpSocket.handle_segment: DELIVERED_PACKETS - 1,
    # Only each host's first packet to its peer resolves a path.
    Network.send: 2,
}

#: Frames off the per-packet path, with instrumentation off: a lossless
#: link holds no loss model, the delivered counter is bumped in place and
#: an RTT sample refreshes the RTO in line.  What is left is setup: each
#: endpoint counts its opened connection once and clamps its initial RTO
#: once.  A frame that creeps back onto the path reads ~1,375 here.
OFF_PATH = {
    NoLoss.should_drop: 0,
    Counter.inc: 2,
    RttEstimator._compute_rto: 2,
}

WATCHED = (*PER_PACKET, *OFF_PATH)


def profile_exchange(
    mode: Callable[[], AbstractContextManager[Any]],
) -> tuple[float, dict[Callable[..., Any], int]]:
    """Python frames entered per delivered packet over the exchange, and
    how often each function of :data:`WATCHED` was entered."""
    frames = 0
    watched = {function.__code__: function for function in WATCHED}
    calls = dict.fromkeys(WATCHED, 0)

    def count(frame: FrameType, event: str, arg: object) -> None:
        nonlocal frames
        if event == "call":
            frames += 1
            function = watched.get(frame.f_code)
            if function is not None:
                calls[function] += 1

    with mode():
        bed = TwoHostTestbed(
            rtt=0.1,
            bandwidth_bps=10e9,
            client_config=TcpConfig(default_initrwnd=300),
        )
        bed.serve_echo()
        bed.server.ip.route_replace(TwoHostTestbed.CLIENT_ZONE, initcwnd=10)
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            exchange = request_response(bed, RESPONSE_BYTES, request_bytes=200)
        finally:
            sys.setprofile(previous)
    assert exchange.completed
    delivered = (
        bed.trunk.forward.stats.packets_delivered
        + bed.trunk.reverse.stats.packets_delivered
    )
    assert delivered == DELIVERED_PACKETS
    assert bed.sim.events_processed == KERNEL_EVENTS
    return frames / delivered, calls


@pytest.mark.parametrize("mode", [disabled, capture], ids=lambda mode: mode.__name__)
def test_frames_per_delivered_packet(mode):
    assert profile_exchange(mode)[0] <= CEILINGS[mode.__name__]


@pytest.fixture(scope="module")
def calls():
    """Entries per watched function over one exchange, instrumentation off."""
    return profile_exchange(disabled)[1]


def test_one_entry_per_packet_per_billed_hop(calls):
    """No hop the tracer bills per packet is entered twice for one packet,
    and path resolution stays off the per-packet path."""
    assert {function.__qualname__: calls[function] for function in PER_PACKET} == {
        function.__qualname__: count for function, count in PER_PACKET.items()
    }


def test_frames_off_the_path_stay_off(calls):
    """The lossless wire makes no loss call, the delivered counter and an
    RTT sample enter no helper frame: nothing here scales with packets."""
    assert {function.__qualname__: calls[function] for function in OFF_PATH} == {
        function.__qualname__: count for function, count in OFF_PATH.items()
    }


if __name__ == "__main__":
    for context in (disabled, capture):
        print(f"{context.__name__}: {profile_exchange(context)[0]:.2f} frames/packet")
