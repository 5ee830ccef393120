"""The packet carried by the fabric.

A packet is addressing plus a size in bytes plus an opaque payload (in this
reproduction, a TCP segment object).  The fabric charges transmission time
for ``size_bytes`` and never inspects the payload.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.net.addresses import IPv4Address

_packet_ids = itertools.count(1)
_next_packet_id = _packet_ids.__next__


class Packet:
    """An addressed datagram with a wire size."""

    __slots__ = ("packet_id", "src", "dst", "size_bytes", "payload")

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        size_bytes: int,
        payload: Any = None,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        self.packet_id = _next_packet_id()
        self.src = src
        self.dst = dst
        self.size_bytes = int(size_bytes)
        self.payload = payload

    def __repr__(self) -> str:
        return (
            f"<Packet #{self.packet_id} {self.src}->{self.dst} "
            f"{self.size_bytes}B {self.payload!r}>"
        )
