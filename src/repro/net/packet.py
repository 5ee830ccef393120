"""What the fabric carries.

The fabric reads three fields of a packet: the source and destination
addresses and the wire size it charges transmission time for.  It never
inspects anything else, so a packet is any object with those fields; in
this reproduction every packet is a TCP segment
(:class:`repro.tcp.wire.Segment`), which carries its own addressing.
"""

from __future__ import annotations

from typing import Protocol

from repro.net.addresses import IPv4Address


class Packet(Protocol):
    """An addressed datagram with a wire size in bytes."""

    src: IPv4Address
    dst: IPv4Address
    size_bytes: int
