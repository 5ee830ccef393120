"""A ceiling on the Python frames one delivered packet costs.

The per-packet path (socket -> host -> fabric -> link -> host -> socket)
is where every packet-level experiment spends its time, and in CPython
its price is, to first order, the number of Python frames entered.  This
test counts ``call`` events under ``sys.setprofile`` over one lossless
1 MB exchange and holds the count per delivered packet under a recorded
ceiling, so a helper hop added to the path shows up as a failed test
instead of as a slower benchmark three PRs later.

The kernel event count is pinned beside it: a frame saving must never be
an event change in disguise.

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

from repro.obs.instrument import capture, disabled
from repro.tcp.constants import TcpConfig
from repro.testing import TwoHostTestbed, request_response

RESPONSE_BYTES = 1_000_000
#: What the exchange below amounts to, whatever it costs to run.
DELIVERED_PACKETS = 1_375
KERNEL_EVENTS = 2_753

#: Frames per delivered packet, by instrumentation mode.  Measured 24.62
#: (disabled) and 27.71 (capture) on CPython 3.11 — 36.87 and 39.96
#: before the path was flattened to one frame per step.  The margin is
#: for interpreter versions (the path has no comprehension that 3.12
#: would inline), not for new helper hops: a hop costs 0.5-1.0.
CEILINGS = {"disabled": 28.0, "capture": 31.0}


def frames_per_packet(mode: Callable[[], AbstractContextManager[Any]]) -> float:
    """Python frames entered per delivered packet over the exchange."""
    frames = 0

    def count(frame: FrameType, event: str, arg: object) -> None:
        nonlocal frames
        if event == "call":
            frames += 1

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
    return frames / delivered


@pytest.mark.parametrize("mode", [disabled, capture], ids=lambda mode: mode.__name__)
def test_frames_per_delivered_packet(mode):
    assert frames_per_packet(mode) <= CEILINGS[mode.__name__]


if __name__ == "__main__":
    for context in (disabled, capture):
        print(f"{context.__name__}: {frames_per_packet(context):.2f} frames/packet")
