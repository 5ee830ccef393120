"""The recovery matrix: TCP loss recovery held against its RFCs, ACK by ACK.

Each cell sends one 500 KB response over a :class:`TwoHostTestbed`
(100 ms RTT) and perturbs it with one drop pattern, crossed with NewReno
against SACK recovery, Reno against CUBIC and an initial window of 10
against 100:

* ``one-loss``: data segment 40 is lost;
* ``two-losses``: segments 40 and 50, one window, are lost;
* ``lost-rexmit``: segment 40 and its first retransmission are lost;
* ``tail-loss``: the last three segments are lost, so no duplicate ACK
  follows;
* ``ack-run``: the eight ACKs from the one for segment 40 on are lost;
* ``reorder-3``: segment 40 arrives after segment 43, which draws
  exactly three duplicate ACKs.

A cell pins what the sender did: segments sent, retransmissions, fast
retransmits, RTOs, the completion time and a digest of its walk — one
line per ACK it received (and per RTO): the ACK, cwnd, ssthresh, the pipe
the RFCs give after the segments it answered with, and those segments.
Run the module to print the walks, and ``diff`` two printouts to read a
move::

    PYTHONPATH=src python -m tests.tcp.test_recovery_matrix [cell ...]

A second test replays the walk through an RFC sender and names every
clause the socket breaks:

* RFC 5681 §3.2: fast retransmit of the first unacknowledged segment on
  the third duplicate ACK; new data only inside the window;
* RFC 6582 §3.2: NewReno's window, inflated by one segment per duplicate
  ACK and deflated by what a partial ACK acknowledges; the first
  unacknowledged segment resent on each partial ACK;
* RFC 6582 §4 and RFC 6675 §5.1: after an RTO, ``recover`` is the highest
  sequence number sent, and no fast retransmit starts below it; what was
  outstanding at the timeout is resent (SACKed data skipped) before new
  data;
* RFC 6675 §5: SetPipe, NextSeg rule 1 before rule 2, and a transmission
  only while ``cwnd - pipe`` holds it;
* RFC 6298 §5: the timer restarts on each ACK of new data, stops when all
  is acknowledged, and on expiry resends the first unacknowledged
  segment, doubles the RTO and restarts;
* RFC 2018 §4: the first SACK block holds the segment that triggered the
  ACK.

Two simplifications are the sender's, not the RFCs', and the replay
holds them: recovery starts on the third duplicate ACK only (not on
RFC 6675's ``IsLost(HighACK + 1)`` earlier), and a final segment shorter
than the MSS needs only its own size of room.  A cell that breaks a
clause is a strict ``xfail`` naming it.
"""

from __future__ import annotations

import hashlib
import sys
from functools import lru_cache
from typing import Any, NamedTuple

import pytest

from repro.tcp.constants import DUPACK_THRESHOLD, MAX_RTO, TcpConfig
from repro.tcp.socket import TcpSocket
from repro.tcp.wire import Segment
from repro.testing import TwoHostTestbed

RTT = 0.100
PORT = 80
MSS = TcpConfig().mss
RESPONSE = 500_000
SEGMENTS = -(-RESPONSE // MSS)
LOSS_AT = 40

# The clauses the replay holds the socket to.
THIRD_DUPACK = "RFC 5681 §3.2 (2): fast retransmit on the third duplicate ACK"
FAST_RETRANSMIT = "RFC 5681 §3.2 (2): fast retransmit resends the first unacknowledged segment"
ONE_RECOVERY = "RFC 5681 §3.2: one fast retransmit per recovery"
CWND = "RFC 5681 §3.1: new data only inside cwnd"
RWND = "RFC 5681 §3.2: new data only inside the receive window"
PARTIAL_ACK = "RFC 6582 §3.2 (5): a partial ACK resends the first unacknowledged segment, only"
DEFLATION = "RFC 6582 §3.2 (5): a partial ACK deflates the window"
EXIT = "RFC 6582 §3.2 (6): recovery ends on the ACK that covers recover"
RECOVER = "RFC 6582 §4 / RFC 6675 §5.1: after an RTO, no fast retransmit below recover"
AFTER_RTO = (
    "RFC 6582 §4 / RFC 6675 §5.1: after an RTO, what was outstanding is resent"
    " as the window allows, before new data"
)
PIPE = "RFC 6675 §5 (C): send only while cwnd - pipe holds the segment"
LOST_FIRST = "RFC 6675 §5 NextSeg: rule (1), lost data, before rule (2), new data"
RESEND_LOST = "RFC 6675 §5 NextSeg (1): resend only lost data, once per recovery"
TIMER_EXPIRY = "RFC 6298 §5: the timer expires one RTO after its last start"
TIMER_RESEND = "RFC 6298 §5 (5.4): a timeout resends the first unacknowledged segment"
TIMER_BACKOFF = "RFC 6298 §5 (5.5): a timeout doubles the RTO"
TIMER_RESTART = "RFC 6298 §5 (5.3, 5.6): the timer restarts on new data acked and on a timeout"
TIMER_STOP = "RFC 6298 §5 (5.2): the timer stops when all data is acknowledged"
FIRST_BLOCK = "RFC 2018 §4: the first SACK block holds the segment that triggered the ACK"

PATTERNS = ("one-loss", "two-losses", "lost-rexmit", "tail-loss", "ack-run", "reorder-3")


def _number(seq: int) -> int:
    """The response's data segment that starts at ``seq`` (1-based)."""
    return (seq - 1) // MSS + 1


class _State(NamedTuple):
    """The sender between two events."""

    time: float
    una: int
    nxt: int
    cwnd: float
    ssthresh: float
    window: int
    rto: float
    deadline: float | None
    recovery: bool
    rwnd: int
    fast: int


def _state(sock: TcpSocket) -> _State:
    cc = sock.cc
    return _State(
        sock._sim.now, sock._snd_una, sock._snd_nxt, cc.cwnd, cc.ssthresh, cc.cwnd_segments,
        sock._rtt.rto, sock._rto_deadline, sock._in_recovery, sock._peer_rwnd_bytes,
        sock.fast_retransmits,
    )


class _Event:
    """One ACK the sender took (``ack`` set), or one timeout (``ack`` None)."""

    def __init__(self, pre: _State, ack: int | None, blocks: tuple[tuple[int, int], ...]):
        self.pre = pre
        self.post = pre
        self.ack = ack
        self.blocks = blocks
        #: Data the sender put on the wire meanwhile: (seq, end, resent).
        self.sent: list[tuple[int, int, bool]] = []


class _Run:
    """One cell's testbed, with the drop pattern on the wire and every
    event the sender saw."""

    def __init__(self, pattern: str, sack: bool, cc: str, iw: int) -> None:
        config = TcpConfig(sack=sack, default_initrwnd=300, congestion_control=cc)
        self.bed = bed = TwoHostTestbed(rtt=RTT, client_config=config, server_config=config)
        self.pattern = pattern
        self.events: list[_Event] = []
        #: RFC 2018 §4 breaches the receiver made: (segment, first block).
        self.sack_order: list[tuple[int, tuple[int, int]]] = []
        self.sender: TcpSocket | None = None
        self.completed_at: float | None = None
        self._event: _Event | None = None
        self._high_data = 0
        self._transmissions: dict[int, int] = {}
        self._held: Segment | None = None
        self._acks_dropped = 0
        self._trigger: Segment | None = None

        def respond(sock: TcpSocket, payload: Any, size: int) -> None:
            sock.send_message("response", RESPONSE)

        def on_accept(sock: TcpSocket) -> None:
            self.sender = sock
            sock.on_message = respond

        def on_response(sock: TcpSocket, payload: Any, size: int) -> None:
            self.completed_at = bed.sim.now

        bed.server.listen(PORT, on_accept=on_accept)
        bed.server.ip.route_replace(TwoHostTestbed.CLIENT_ZONE, initcwnd=iw)
        self._tap_server()
        self.receiver = bed.client.connect(
            bed.server.address, PORT,
            on_established=lambda sock: sock.send_message("request", 200),
            on_message=on_response,
        )
        self._tap_client()

    # -- the sender's side ------------------------------------------------

    def _tap_server(self) -> None:
        host = self.bed.server
        receive, send = host.receive_packet, host.send_packet

        def tapped_receive(segment: Segment) -> None:
            sock = self.sender
            if sock is None:
                receive(segment)
                return
            event = self._event = _Event(_state(sock), segment.ack, segment.sack_blocks)
            receive(segment)
            self._event = None
            event.post = _state(sock)
            self.events.append(event)

        def tapped_send(segment: Segment) -> None:
            if segment.payload_bytes:
                self._note_sent(segment)
                segment = self._perturb(segment, send)
                if segment is None:
                    return
            send(segment)

        host.receive_packet = tapped_receive
        host.send_packet = tapped_send

    def _note_sent(self, segment: Segment) -> None:
        event = self._event
        assert event is not None, "data sent outside an ACK or a timeout"
        end = segment.end_seq
        event.sent.append((segment.seq, end, segment.seq < self._high_data))
        self._high_data = max(self._high_data, end)

    def _perturb(self, segment: Segment, send: Any) -> Segment | None:
        """The cell's drop pattern on the data path (None: dropped or held)."""
        number = _number(segment.seq)
        count = self._transmissions[number] = self._transmissions.get(number, 0) + 1
        pattern = self.pattern
        if count == 1 and (
            (pattern in ("one-loss", "lost-rexmit") and number == LOSS_AT)
            or (pattern == "two-losses" and number in (LOSS_AT, LOSS_AT + 10))
            or (pattern == "tail-loss" and number > SEGMENTS - 3)
        ):
            return None
        if pattern == "lost-rexmit" and number == LOSS_AT and count == 2:
            return None
        if pattern == "reorder-3" and count == 1:
            if number == LOSS_AT:
                self._held = segment
                return None
            if number == LOSS_AT + 3 and self._held is not None:
                send(segment)
                segment, self._held = self._held, None
        return segment

    # -- the receiver's side ----------------------------------------------

    def _tap_client(self) -> None:
        host = self.bed.client
        receive, send = host.receive_packet, host.send_packet
        first_ack_dropped = 1 + LOSS_AT * MSS

        def tapped_receive(segment: Segment) -> None:
            out_of_order = segment.payload_bytes and segment.seq > self.receiver._rcv_nxt
            self._trigger = segment if out_of_order else None
            receive(segment)
            self._trigger = None

        def tapped_send(segment: Segment) -> None:
            trigger = self._trigger
            if trigger is not None and segment.sack_blocks:
                start, end = segment.sack_blocks[0]
                if not start <= trigger.seq < trigger.end_seq <= end:
                    self.sack_order.append((_number(trigger.seq), segment.sack_blocks[0]))
            if (
                self.pattern == "ack-run"
                and segment.ack >= first_ack_dropped
                and self._acks_dropped < 8
                and not segment.payload_bytes
            ):
                self._acks_dropped += 1
                return
            send(segment)

        host.receive_packet = tapped_receive
        host.send_packet = tapped_send

    def run(self) -> None:
        """Run the exchange, recording each timeout of the sender as an event."""
        expire = TcpSocket._on_rto

        def on_rto(sock: TcpSocket) -> None:
            if sock is not self.sender:
                expire(sock)
                return
            event = self._event = _Event(_state(sock), None, ())
            fired = sock.rtos_fired
            expire(sock)
            self._event = None
            if sock.rtos_fired > fired:
                event.post = _state(sock)
                self.events.append(event)

        TcpSocket._on_rto = on_rto  # type: ignore[method-assign]
        try:
            self.bed.sim.run(until=60.0)
        finally:
            TcpSocket._on_rto = expire  # type: ignore[method-assign]


class _Sender:
    """What RFC 5681/6582 (NewReno) or RFC 6675 (SACK) let a sender do,
    rebuilt from the wire alone; ``breaks`` collects the clauses the socket
    broke and ``last_pipe`` is the pipe after the last event."""

    def __init__(self, sack: bool) -> None:
        self.sack = sack
        self.breaks: set[str] = set()
        self.segments: dict[int, int] = {}  # seq -> end of everything sent
        self.sacked: dict[int, int] = {}  # the scoreboard: seq -> end
        self.recovery = False
        self.recover = 0
        self.high_rxt = 0
        self.dupacks = 0
        #: NewReno's inflation (bytes above ``cwnd`` while recovering).
        self.inflation = 0
        #: After an RTO: what was outstanding then, until acked, SACKed or resent.
        self.rto_backlog: set[int] = set()
        self.una = 0
        self.nxt = 0
        self.last_pipe = 0

    def _break(self, clause: str) -> None:
        self.breaks.add(clause)

    def _resends_head(self, event: _Event, una: int) -> bool:
        """The event's first transmission resends the segment at ``una``."""
        return bool(event.sent) and event.sent[0][:2] == (una, self.segments.get(una))

    def _lost_edge(self) -> int:
        """Every unSACKed segment ending at or below this is lost
        (RFC 6675 ``IsLost``: more than ``(DupThresh - 1) * SMSS`` bytes
        or ``DupThresh`` discontiguous runs SACKed above it)."""
        sacked_bytes = runs = 0
        below = None
        for seq in sorted(self.sacked, reverse=True):
            end = self.sacked[seq]
            if end != below:
                runs += 1
            sacked_bytes += end - seq
            below = seq
            if sacked_bytes > (DUPACK_THRESHOLD - 1) * MSS or runs >= DUPACK_THRESHOLD:
                return seq
        return self.una

    def _lost(self, seq: int, edge: int) -> bool:
        return seq not in self.sacked and (
            self.segments[seq] <= edge or seq in self.rto_backlog
        )

    def pipe(self) -> int:
        """RFC 6675 SetPipe (SACK), or the inflated window's complement
        (NewReno: ``FlightSize`` less the inflation)."""
        if not self.sack:
            lost = sum(self.segments[seq] - seq for seq in self.rto_backlog)
            return self.nxt - self.una - lost - (self.inflation if self.recovery else 0)
        edge = self._lost_edge()
        pipe = 0
        for seq, end in self.segments.items():
            if seq < self.una or seq in self.sacked:
                continue
            if not self._lost(seq, edge):
                pipe += end - seq
            if seq < self.high_rxt:
                pipe += end - seq
        return pipe

    def _apply_ack(self, ack: int, blocks: tuple[tuple[int, int], ...]) -> None:
        self.una = max(self.una, ack)
        for seq in [seq for seq in self.sacked if seq < self.una]:
            del self.sacked[seq]
        self.rto_backlog = {seq for seq in self.rto_backlog if seq >= self.una}
        for start, end in blocks:
            for seq, seg_end in self.segments.items():
                if start <= seq and seg_end <= end and seq >= self.una:
                    self.sacked[seq] = seg_end
                    self.rto_backlog.discard(seq)

    def step(self, event: _Event) -> None:
        pre = event.pre
        forced = False
        if event.ack is None:
            forced = self._timeout(event)
        else:
            ack = event.ack
            self._apply_ack(ack, event.blocks if self.sack else ())
            if ack > pre.una:
                forced = self._new_ack(event, ack)
            elif ack == pre.una < pre.nxt:
                forced = self._duplicate_ack(event)
        self._send(event, forced)

    def _timeout(self, event: _Event) -> bool:
        pre, post = event.pre, event.post
        if pre.deadline != post.time:
            self._break(TIMER_EXPIRY)
        if post.rto != min(2 * pre.rto, MAX_RTO):
            self._break(TIMER_BACKOFF)
        if post.deadline != post.time + post.rto:
            self._break(TIMER_RESTART)
        if not self._resends_head(event, pre.una):
            self._break(TIMER_RESEND)
        # RFC 2018 §8: the receiver may have reneged, so the marks go.
        self.sacked.clear()
        self.recovery = False
        self.recover = pre.nxt
        self.rto_backlog = {seq for seq in self.segments if pre.una <= seq < pre.nxt}
        self.high_rxt = pre.una
        self.dupacks = 0
        self.inflation = 0
        return True

    def _new_ack(self, event: _Event, ack: int) -> bool:
        post = event.post
        if post.una < post.nxt and post.deadline != post.time + post.rto:
            self._break(TIMER_RESTART)
        if post.una == post.nxt and post.deadline is not None:
            self._break(TIMER_STOP)
        self.dupacks = 0
        if not self.recovery:
            return False
        if ack >= self.recover:
            self.recovery = False
            if post.recovery:
                self._break(EXIT)
            return False
        if not self.sack:
            # RFC 6582 §3.2 (5): deflate by what was acknowledged, add
            # back one segment, and resend the next hole at once.
            acked = ack - event.pre.una
            self.inflation -= acked
            if acked >= MSS:
                self.inflation += MSS
            if not self._resends_head(event, ack):
                self._break(PARTIAL_ACK)
            return True
        return False

    def _duplicate_ack(self, event: _Event) -> bool:
        pre, post = event.pre, event.post
        entered = post.fast > pre.fast
        if self.recovery:
            if not self.sack:
                self.inflation += MSS
            if entered:
                self._break(ONE_RECOVERY)
            return False
        self.dupacks += 1
        allowed = self.dupacks >= DUPACK_THRESHOLD and pre.una >= self.recover
        if entered and not allowed:
            self._break(RECOVER if self.dupacks >= DUPACK_THRESHOLD else THIRD_DUPACK)
        if allowed and not entered:
            self._break(THIRD_DUPACK)
        if not allowed:
            return False
        self.recovery = True
        self.recover = pre.nxt
        self.high_rxt = pre.una
        self.inflation = DUPACK_THRESHOLD * MSS
        if not self._resends_head(event, pre.una):
            self._break(FAST_RETRANSMIT)
        return True

    def _send(self, event: _Event, forced: bool) -> None:
        """Hold each segment the event sent to the rule that allows it."""
        post = event.post
        self.nxt = max(self.nxt, event.pre.nxt)
        pipe = self.pipe()
        for index, (seq, end, resent) in enumerate(event.sent):
            size = end - seq
            room = post.window * MSS - pipe
            if index == 0 and forced:
                pass  # the fast retransmit, partial-ACK or timeout resend
            elif resent:
                self._check_resend(seq, room, size)
            else:
                self._check_new(seq, end, room, size, post)
            if resent:
                self.high_rxt = max(self.high_rxt, end)
                self.rto_backlog.discard(seq)
                pipe += size
            else:
                self.segments[seq] = end
                self.nxt = max(self.nxt, end)
                pipe += size
        if not self.sack:
            pipe = self.pipe()
        if self.rto_backlog:
            first = min(self.rto_backlog)
            if post.window * MSS - pipe >= self.segments[first] - first:
                self._break(AFTER_RTO)
        self.last_pipe = pipe

    def _check_resend(self, seq: int, room: int, size: int) -> None:
        if not self.sack:
            if not self.rto_backlog:
                self._break(PARTIAL_ACK)
            return
        edge = self._lost_edge()
        if not self._lost(seq, edge) or seq < self.high_rxt:
            self._break(RESEND_LOST)
        if room < size:
            self._break(PIPE)

    def _check_new(self, seq: int, end: int, room: int, size: int, post: _State) -> None:
        if end > self.una + post.rwnd:
            self._break(RWND)
        if self.rto_backlog:
            self._break(AFTER_RTO)
        if not self.sack:
            if room < size:
                self._break(DEFLATION if self.recovery else CWND)
            return
        if room < size:
            self._break(PIPE)
        if self.recovery:
            edge = self._lost_edge()
            if any(
                self._lost(other, edge) and other >= max(self.high_rxt, self.una)
                for other in self.segments
            ):
                self._break(LOST_FIRST)


class Outcome(NamedTuple):
    sent: int
    retransmits: int
    fast: int
    rtos: int
    done: str
    walk: str


def _walk_line(event: _Event, pipe: int) -> str:
    post = event.post
    head = "rto" if event.ack is None else f"ack {event.ack}"
    if event.blocks:
        head += " sack " + ",".join(f"{start}-{end}" for start, end in event.blocks)
    sent = " ".join(f"{'R' if resent else 'N'}{_number(seq)}" for seq, _, resent in event.sent)
    mode = " recovery" if post.recovery else ""
    return (
        f"{post.time!r} {head}: cwnd {post.cwnd!r} ssthresh {post.ssthresh!r} "
        f"pipe {pipe}{mode}" + (f" | {sent}" if sent else "")
    )


@lru_cache(maxsize=None)
def play(name: str) -> tuple[Outcome, tuple[str, ...], tuple[str, ...]]:
    """Run one cell: what it pins, its walk and the clauses it breaks."""
    pattern, mode, cc, iw = CELLS[name]
    run = _Run(pattern, mode == "sack", cc, iw)
    run.run()
    sender = run.sender
    assert sender is not None and run.completed_at is not None, name
    rfc = _Sender(mode == "sack")
    walk = []
    for event in run.events:
        rfc.step(event)
        walk.append(_walk_line(event, rfc.last_pipe))
    if run.sack_order:
        rfc.breaks.add(FIRST_BLOCK)
    outcome = Outcome(
        sender.segments_sent,
        sender.segments_retransmitted,
        sender.fast_retransmits,
        sender.rtos_fired,
        repr(run.completed_at),
        hashlib.sha256("\n".join(walk).encode()).hexdigest()[:16],
    )
    return outcome, tuple(walk), tuple(sorted(rfc.breaks))


CELLS: dict[str, tuple[str, str, str, int]] = {
    f"{pattern}-{mode}-{cc}-iw{iw}": (pattern, mode, cc, iw)
    for pattern in PATTERNS
    for mode in ("newreno", "sack")
    for cc in ("reno", "cubic")
    for iw in (10, 100)
}

#: What each cell pins (see :class:`Outcome`).
PINNED: dict[str, Outcome] = {
    "one-loss-newreno-reno-iw10": Outcome(346, 1, 1, 0, "1.4005881600000014", "2039af53bcfc8024"),
    "one-loss-newreno-reno-iw100": Outcome(346, 1, 1, 0, "0.6004776000000005", "925f782a0b6260a5"),
    "one-loss-newreno-cubic-iw10": Outcome(346, 1, 1, 0, "1.2003115200000012", "36bc3b9959adf95c"),
    "one-loss-newreno-cubic-iw100": Outcome(346, 1, 1, 0, "0.5006332800000006", "87b60195f662309f"),
    "one-loss-sack-reno-iw10": Outcome(346, 1, 1, 0, "1.4005881600000014", "d330c0a156bf798b"),
    "one-loss-sack-reno-iw100": Outcome(346, 1, 1, 0, "0.6004776000000005", "11ee198eda803f05"),
    "one-loss-sack-cubic-iw10": Outcome(346, 1, 1, 0, "1.2003115200000012", "2d6b26c566d7da94"),
    "one-loss-sack-cubic-iw100": Outcome(346, 1, 1, 0, "0.5006332800000006", "8efc3d1e8fff843f"),
    "two-losses-newreno-reno-iw10": Outcome(347, 2, 1, 0, "1.4005881600000014", "a3d6d7a8c89c7290"),
    "two-losses-newreno-reno-iw100": Outcome(347, 2, 1, 0, "0.6004056000000004", "a84e69d746395661"),
    "two-losses-newreno-cubic-iw10": Outcome(347, 2, 1, 0, "1.200299520000001", "b91df917aaca89d0"),
    "two-losses-newreno-cubic-iw100": Outcome(347, 2, 1, 0, "0.5005492800000005", "ee6420603bf2e390"),
    "two-losses-sack-reno-iw10": Outcome(347, 2, 1, 0, "1.4005881600000014", "3ecccf0484191f4a"),
    "two-losses-sack-reno-iw100": Outcome(347, 2, 1, 0, "0.6004896000000005", "60845693ae0182b9"),
    "two-losses-sack-cubic-iw10": Outcome(347, 2, 1, 0, "1.200323520000001", "7bbc3208b1fb32ff"),
    "two-losses-sack-cubic-iw100": Outcome(347, 2, 1, 0, "0.5006452800000006", "0afb114f2a5a3354"),
    "lost-rexmit-newreno-reno-iw10": Outcome(348, 3, 2, 1, "2.8006646399999946", "5385e5d88f52e331"),
    "lost-rexmit-newreno-reno-iw100": Outcome(348, 3, 2, 1, "1.7007091200000013", "0bd6710d80bb2cd5"),
    "lost-rexmit-newreno-cubic-iw10": Outcome(348, 3, 2, 1, "3.4005225599999926", "c7d53c1122819b01"),
    "lost-rexmit-newreno-cubic-iw100": Outcome(348, 3, 2, 1, "1.0005988800000012", "16cfbc36149e4682"),
    "lost-rexmit-sack-reno-iw10": Outcome(347, 2, 1, 1, "2.0004820800000003", "1fda4cea4afc0fe8"),
    "lost-rexmit-sack-reno-iw100": Outcome(347, 2, 1, 1, "0.7009339200000011", "5083d2d9fa4c178a"),
    "lost-rexmit-sack-cubic-iw10": Outcome(347, 2, 1, 1, "1.5005164800000015", "7891b9ef2c4b8327"),
    "lost-rexmit-sack-cubic-iw100": Outcome(347, 2, 1, 1, "0.6006576000000007", "aa82f2a703273272"),
    "tail-loss-newreno-reno-iw10": Outcome(348, 3, 0, 3, "1.600454880000001", "f1b5988d63a664e0"),
    "tail-loss-newreno-reno-iw100": Outcome(348, 3, 0, 3, "1.3005379200000007", "4043de623aa2118f"),
    "tail-loss-newreno-cubic-iw10": Outcome(348, 3, 0, 3, "1.600454880000001", "e6142e2c30599c68"),
    "tail-loss-newreno-cubic-iw100": Outcome(348, 3, 0, 3, "1.3005379200000007", "f9c5861395f6ce1b"),
    "tail-loss-sack-reno-iw10": Outcome(348, 3, 0, 1, "1.1004545600000009", "04dfcdaec05771ec"),
    "tail-loss-sack-reno-iw100": Outcome(348, 3, 0, 1, "0.8005376000000006", "57cb6fd012e9cd0f"),
    "tail-loss-sack-cubic-iw10": Outcome(348, 3, 0, 1, "1.1004545600000009", "3de5852f772e0ae6"),
    "tail-loss-sack-cubic-iw100": Outcome(348, 3, 0, 1, "0.8005376000000006", "2913946999b9851b"),
    "ack-run-newreno-reno-iw10": Outcome(345, 0, 0, 0, "0.7004539200000006", "76c2ba95c6c91b9e"),
    "ack-run-newreno-reno-iw100": Outcome(345, 0, 0, 0, "0.4005369600000005", "7619f1a2c526152e"),
    "ack-run-newreno-cubic-iw10": Outcome(345, 0, 0, 0, "0.7004539200000006", "76c2ba95c6c91b9e"),
    "ack-run-newreno-cubic-iw100": Outcome(345, 0, 0, 0, "0.4005369600000005", "7619f1a2c526152e"),
    "ack-run-sack-reno-iw10": Outcome(345, 0, 0, 0, "0.7004539200000006", "76c2ba95c6c91b9e"),
    "ack-run-sack-reno-iw100": Outcome(345, 0, 0, 0, "0.4005369600000005", "7619f1a2c526152e"),
    "ack-run-sack-cubic-iw10": Outcome(345, 0, 0, 0, "0.7004539200000006", "76c2ba95c6c91b9e"),
    "ack-run-sack-cubic-iw100": Outcome(345, 0, 0, 0, "0.4005369600000005", "7619f1a2c526152e"),
    "reorder-3-newreno-reno-iw10": Outcome(417, 72, 2, 0, "1.6007448000000017", "5e7008d414249833"),
    "reorder-3-newreno-reno-iw100": Outcome(552, 207, 2, 0, "0.5012932800000013", "0906a16793d9d427"),
    "reorder-3-newreno-cubic-iw10": Outcome(427, 82, 2, 0, "1.3006118400000015", "04ac69a75b56c9d9"),
    "reorder-3-newreno-cubic-iw100": Outcome(580, 235, 2, 0, "0.5003212800000003", "6b4942ec8acbfc7a"),
    "reorder-3-sack-reno-iw10": Outcome(346, 1, 1, 0, "1.4005881600000014", "0725a76a3998a292"),
    "reorder-3-sack-reno-iw100": Outcome(346, 1, 1, 0, "0.6004656000000005", "caf99c79479195a4"),
    "reorder-3-sack-cubic-iw10": Outcome(346, 1, 1, 0, "1.200299520000001", "4012b3a416cc1bfd"),
    "reorder-3-sack-cubic-iw100": Outcome(346, 1, 1, 0, "0.5006212800000006", "3b14824782b9c8dd"),
}

#: Cells that break RFC clauses, with the clauses.
BREAKS: dict[str, tuple[str, ...]] = {
    "two-losses-newreno-reno-iw10": (DEFLATION,),
    "two-losses-newreno-reno-iw100": (DEFLATION,),
    "two-losses-newreno-cubic-iw10": (DEFLATION,),
    "two-losses-newreno-cubic-iw100": (DEFLATION,),
    "lost-rexmit-newreno-reno-iw10": (RECOVER, AFTER_RTO),
    "lost-rexmit-newreno-reno-iw100": (RECOVER, AFTER_RTO),
    "lost-rexmit-newreno-cubic-iw10": (RECOVER, AFTER_RTO),
    "lost-rexmit-newreno-cubic-iw100": (RECOVER, AFTER_RTO),
    "tail-loss-newreno-reno-iw10": (AFTER_RTO,),
    "tail-loss-newreno-reno-iw100": (AFTER_RTO,),
    "tail-loss-newreno-cubic-iw10": (AFTER_RTO,),
    "tail-loss-newreno-cubic-iw100": (AFTER_RTO,),
    "reorder-3-newreno-reno-iw10": (DEFLATION,),
    "reorder-3-newreno-reno-iw100": (DEFLATION,),
    "reorder-3-newreno-cubic-iw10": (DEFLATION,),
    "reorder-3-newreno-cubic-iw100": (DEFLATION,),
}

#: Cells that do not reach their pinned outcome yet (all in ``BREAKS``).
MOVES: frozenset[str] = frozenset()


def _cells(xfails: Any) -> list[Any]:
    return [
        pytest.param(
            name, marks=pytest.mark.xfail(strict=True, reason="; ".join(BREAKS[name]))
        )
        if name in xfails
        else name
        for name in CELLS
    ]


@pytest.mark.parametrize("name", _cells(MOVES))
def test_cell(name: str) -> None:
    assert play(name)[0] == PINNED[name]


@pytest.mark.parametrize("name", _cells(BREAKS))
def test_rfc(name: str) -> None:
    assert play(name)[2] == ()


if __name__ == "__main__":
    for name in sys.argv[1:] or CELLS:
        outcome, walk, breaks = play(name)
        print(f"== {name}: {outcome}")
        for clause in breaks:
            print(f"   breaks {clause}")
        for line in walk:
            print(f"   {line}")
