"""A bare packet for the fabric tests.

The fabric reads three fields of a packet — ``src``, ``dst`` and
``size_bytes`` (:class:`repro.net.packet.Packet`) — and nothing else, so
a test that drives links or the network directly sends this instead of a
TCP segment.  ``tag`` is for the test alone: a receiving sink reads it back
to tell the packets apart.  A host counts one as unmatched.
"""

from __future__ import annotations

from typing import Any

from repro.net.addresses import IPv4Address


class Datagram:
    __slots__ = ("src", "dst", "size_bytes", "tag")

    def __init__(
        self, src: IPv4Address, dst: IPv4Address, size_bytes: int, tag: Any = None
    ) -> None:
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.tag = tag
