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
so is how often the frames that left the path are entered, in both
instrumentation modes: the fabric's arrival lookup, the loss calls of a
lossless and of a Bernoulli wire, the queue gauge's ``set``, the window
and pipe reads and the slow-start-exit stamp never; the counter method
and the RTO clamp only while each endpoint sets its connection up.

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
from repro.net.loss import BernoulliLoss, LossModel, NoLoss
from repro.net.network import Network
from repro.obs.instrument import capture, disabled
from repro.obs.metrics import Counter, Gauge
from repro.tcp.cc.base import CongestionControl
from repro.tcp.constants import TcpConfig
from repro.tcp.rto import RttEstimator
from repro.tcp.socket import TcpSocket
from repro.testing import TwoHostTestbed, request_response

RESPONSE_BYTES = 1_000_000
#: What the exchange below amounts to, whatever it costs to run.
DELIVERED_PACKETS = 1_375
KERNEL_EVENTS = 1_378

#: Frames per delivered packet, by instrumentation mode.  Measured 11.60
#: (disabled) and 11.62 (capture) on CPython 3.11 — 13.09 and 15.61 while
#: each arrival went through the fabric's host lookup, the queue gauge
#: and the Bernoulli loss draw were calls, and every ACK read the window
#: through a property, and pipe and the slow-start exit through helpers;
#: 19.11 and 21.63 while the clock, the smoothed RTT and the link's rate
#: were read through frames, every RTT sample entered the RTO clamp, a
#: lossless link called its loss model and the delivered counter went
#: through ``inc()``; 21.61 and 24.13 while each packet was a segment
#: wrapped in a packet object and the fabric resolved its path per
#: packet, 24.62 and 27.71 while a link spent two timers per packet, 36.87
#: and 39.96 before the path was flattened to one frame per step.  The
#: margin is for interpreter versions (the path has no comprehension that
#: 3.12 would inline), not for new helper hops: a hop costs 0.5-1.0.
CEILINGS = {"disabled": 15.0, "capture": 15.0}

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

#: Frames off the per-packet path, in either instrumentation mode: an
#: arrival goes straight to its host, a lossless link holds no loss model,
#: the delivered counter is bumped in place, the queue gauge is written in
#: line, an ACK reads the window and (outside recovery) pipe in line and
#: stamps the slow-start exit only once it happens, and an RTT sample
#: refreshes the RTO in line.  What is left is setup: each endpoint counts
#: its opened connection once and clamps its initial RTO once.  A frame
#: that creeps back onto the path reads ~1,375 here (~340 for a per-ACK one).
OFF_PATH = {
    Network.deliver: 0,
    NoLoss.should_drop: 0,
    Gauge.set: 0,
    CongestionControl.cwnd_segments.fget: 0,
    TcpSocket._pipe: 0,
    TcpSocket._note_ss_exit: 0,
    Counter.inc: 2,
    RttEstimator._compute_rto: 2,
}

#: A lossy exchange: the same one over a Bernoulli wire, which the link
#: draws in line.  How many packets it loses at the testbed's seed.
LOSSY_WIRE = BernoulliLoss(0.01)
LOSSY_WIRE_LOST = 8

WATCHED = (*PER_PACKET, *OFF_PATH, BernoulliLoss.should_drop)

MODES = {mode.__name__: mode for mode in (disabled, capture)}


class Profile:
    """What one profiled exchange cost and amounted to."""

    def __init__(
        self, frames: int, calls: dict[Callable[..., Any], int], bed: TwoHostTestbed
    ) -> None:
        forward, reverse = bed.trunk.forward.stats, bed.trunk.reverse.stats
        self.delivered = forward.packets_delivered + reverse.packets_delivered
        self.lost = forward.packets_dropped_loss + reverse.packets_dropped_loss
        self.frames_per_packet = frames / self.delivered
        self.calls = calls
        self.events = bed.sim.events_processed


def profile_exchange(
    mode: Callable[[], AbstractContextManager[Any]], loss_model: LossModel | None = None
) -> Profile:
    """Python frames entered over the exchange, and how often each
    function of :data:`WATCHED` was entered."""
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
            loss_model=loss_model,
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
    return Profile(frames, calls, bed)


@pytest.fixture(scope="module")
def profiles() -> dict[str, Profile]:
    """One lossless exchange per instrumentation mode."""
    return {name: profile_exchange(mode) for name, mode in MODES.items()}


@pytest.mark.parametrize("mode", MODES)
def test_frames_per_delivered_packet(profiles, mode):
    profile = profiles[mode]
    assert (profile.delivered, profile.events) == (DELIVERED_PACKETS, KERNEL_EVENTS)
    assert profile.frames_per_packet <= CEILINGS[mode]


def entries(
    profiles: dict[str, Profile], expected: dict[Callable[..., Any], int]
) -> tuple[dict[str, dict[str, int]], dict[str, dict[str, int]]]:
    """Per mode, the entries of each function of ``expected`` by name:
    as counted, and as ``expected`` says."""
    counted = {
        mode: {function.__qualname__: profile.calls[function] for function in expected}
        for mode, profile in profiles.items()
    }
    named = {function.__qualname__: count for function, count in expected.items()}
    return counted, dict.fromkeys(profiles, named)


def test_one_entry_per_packet_per_billed_hop(profiles):
    """No hop the tracer bills per packet is entered twice for one packet,
    and path resolution stays off the per-packet path, in either mode."""
    counted, expected = entries(profiles, PER_PACKET)
    assert counted == expected


def test_frames_off_the_path_stay_off(profiles):
    """Nothing here scales with packets, with instrumentation on or off."""
    counted, expected = entries(profiles, OFF_PATH)
    assert counted == expected


def test_a_bernoulli_wire_draws_in_line():
    """A lossy trunk loses packets without one call to its loss model."""
    profile = profile_exchange(disabled, LOSSY_WIRE)
    assert profile.lost == LOSSY_WIRE_LOST
    assert profile.calls[BernoulliLoss.should_drop] == 0


if __name__ == "__main__":
    for name, context in MODES.items():
        print(f"{name}: {profile_exchange(context).frames_per_packet:.2f} frames/packet")
