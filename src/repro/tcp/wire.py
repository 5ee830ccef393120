"""TCP segments as they appear on the simulated wire.

Real TCP carries application bytes; this simulation carries byte *counts*
plus :class:`MessageMark` metadata so the receiving application can learn
when a logical message (a probe request, a file response) has been fully
delivered in order — the moment the paper's probes time.
"""

from __future__ import annotations

from typing import Any

from repro.net.addresses import IPv4Address
from repro.records import Frozen
from repro.tcp.constants import TCP_HEADER_BYTES


class MessageMark(Frozen):
    """Marks the last sequence byte of an application message.

    When the receiver's in-order delivery point passes ``end_seq`` the
    message is complete and ``payload`` is handed to the application.
    """

    __slots__ = ("end_seq", "payload", "size_bytes")

    end_seq: int
    payload: Any
    size_bytes: int

    def __init__(self, end_seq: int, payload: Any, size_bytes: int) -> None:
        object.__setattr__(self, "end_seq", end_seq)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "size_bytes", size_bytes)


class Segment:
    """One TCP segment, and the packet that carries it.

    ``src`` and ``dst`` are the hosts' addresses and ``size_bytes`` the
    wire size, header included: the three fields the fabric reads
    (:class:`~repro.net.packet.Packet`), so a segment travels as itself.
    ``seq`` numbers the first payload byte (or the SYN/FIN itself);
    ``ack`` is the cumulative acknowledgement, valid when ``is_ack``.
    ``rwnd_bytes`` is the advertised receive window.  ``sack_blocks`` are
    the (start, end) ranges the receiver holds above the cumulative ACK
    (RFC 2018; max 4 blocks).  ``end_seq`` is the first sequence number
    *after* this segment.

    Immutable by convention: one is built per packet, so this is a
    slotted plain class, not a frozen dataclass, and a standalone one
    (SLOT001 checks only classes whose bases it can resolve).  Nothing
    mutates, compares or copies a segment after construction, and nothing
    may start to — the receiver is handed the very object the sender built.
    """

    __slots__ = (
        "src", "dst", "size_bytes", "src_port", "dst_port", "seq", "ack",
        "payload_bytes", "syn", "fin", "rst", "is_ack", "rwnd_bytes", "marks",
        "sack_blocks", "end_seq",
    )

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        src_port: int,
        dst_port: int,
        seq: int,
        ack: int,
        payload_bytes: int = 0,
        syn: bool = False,
        fin: bool = False,
        rst: bool = False,
        is_ack: bool = False,
        rwnd_bytes: int = 0,
        marks: tuple[MessageMark, ...] = (),
        sack_blocks: tuple[tuple[int, int], ...] = (),
    ) -> None:
        self.src = src
        self.dst = dst
        self.size_bytes = TCP_HEADER_BYTES + payload_bytes
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.payload_bytes = payload_bytes
        self.syn = syn
        self.fin = fin
        self.rst = rst
        self.is_ack = is_ack
        self.rwnd_bytes = rwnd_bytes
        self.marks = marks
        self.sack_blocks = sack_blocks
        # SYN and FIN each consume one sequence number (bools add as 0/1).
        self.end_seq = seq + payload_bytes + syn + fin

    def __repr__(self) -> str:
        flags = "".join(
            token
            for token, present in (
                ("S", self.syn),
                ("F", self.fin),
                ("R", self.rst),
                ("A", self.is_ack),
            )
            if present
        )
        return (
            f"[{flags or '.'} seq={self.seq} ack={self.ack} "
            f"len={self.payload_bytes} rwnd={self.rwnd_bytes}]"
        )
