"""The TCP socket state machine.

One :class:`TcpSocket` is one side of one connection.  The implementation
is deliberately shaped like the Linux path that matters to Riptide:

* at ``connect()`` (or on accepting a SYN) the socket asks its host for the
  initial congestion window of the route to the peer — this is the exact
  point where a Riptide-installed ``ip route ... initcwnd`` takes effect;
* the congestion window then evolves purely under the plugged congestion
  control (slow start, congestion avoidance, NewReno recovery, RTO), so
  Riptide only ever changes the *starting point* of a connection;
* the receiver advertises an initial window taken from its own route/sysctl
  (``initrwnd``) that then auto-grows, reproducing the Section III-C
  requirement that receive windows cover the sender's first burst.

Applications exchange *messages* (sized byte counts with opaque payloads);
a message is delivered when its last byte arrives in order — the moment
the paper's diagnostic probes time.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from collections import deque
from collections.abc import Callable, Iterable
from operator import attrgetter
from typing import Any, TYPE_CHECKING

from repro.net.addresses import IPv4Address
from repro.obs.trace import EventType
from repro.sim.events import Event
from repro.tcp.cc import make_congestion_control
from repro.tcp.constants import (
    DELAYED_ACK_TIMEOUT,
    DUPACK_THRESHOLD,
    TcpConfig,
)
from repro.tcp.errors import TcpStateError
from repro.tcp.rto import RttEstimator
from repro.tcp.wire import MessageMark, Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.linux.host import Host


class TcpState(enum.Enum):
    """Connection states (TIME_WAIT is collapsed into CLOSED)."""

    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin-wait-1"
    FIN_WAIT_2 = "fin-wait-2"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"


class SocketStats:
    """A point-in-time snapshot of one socket — what ``ss -i`` shows.

    Riptide reads ``cwnd``, ``bytes_acked`` and ``srtt`` from these
    snapshots: the agent groups the rows themselves and hands them to its
    policy (:class:`repro.core.combiners.Observation`).

    Slotted, immutable by convention: a poll builds one per open
    connection (eight per fluid cohort), so the class is slotted rather
    than frozen — a frozen ``__init__`` stores each of the sixteen fields
    through ``object.__setattr__`` — and both row builders pass the
    fields positionally, in the order ``__init__`` takes them.  A stale ``ss``
    hands the same objects out again; nothing may write to one.
    """

    __slots__ = (
        "local_port", "remote_address", "remote_port", "state", "cwnd", "ssthresh",
        "initial_cwnd", "srtt", "bytes_acked", "bytes_received", "segments_sent",
        "segments_retransmitted", "created_at", "established_at", "last_activity_at", "is_client",
    )

    def __init__(
        self, local_port: int, remote_address: IPv4Address, remote_port: int, state: TcpState,
        cwnd: int, ssthresh: float, initial_cwnd: int, srtt: float | None, bytes_acked: int,
        bytes_received: int, segments_sent: int, segments_retransmitted: int, created_at: float,
        established_at: float | None, last_activity_at: float, is_client: bool = False,
    ) -> None:
        self.local_port = local_port
        self.remote_address = remote_address
        self.remote_port = remote_port
        self.state = state
        self.cwnd = cwnd
        self.ssthresh = ssthresh
        self.initial_cwnd = initial_cwnd
        self.srtt = srtt
        self.bytes_acked = bytes_acked
        self.bytes_received = bytes_received
        self.segments_sent = segments_sent
        self.segments_retransmitted = segments_retransmitted
        self.created_at = created_at
        self.established_at = established_at
        self.last_activity_at = last_activity_at
        self.is_client = is_client


class _SentSegment:
    """Book-keeping for one segment awaiting acknowledgement."""

    __slots__ = (
        "seq", "end_seq", "payload_bytes", "syn", "fin", "marks", "last_sent_at", "retransmitted",
    )

    def __init__(
        self,
        seq: int,
        end_seq: int,
        payload_bytes: int,
        syn: bool,
        fin: bool,
        marks: tuple[MessageMark, ...],
        last_sent_at: float,
    ) -> None:
        self.seq = seq
        self.end_seq = end_seq
        self.payload_bytes = payload_bytes
        self.syn = syn
        self.fin = fin
        self.marks = marks
        self.last_sent_at = last_sent_at
        self.retransmitted = False


#: What every socket's retransmission-queue slot holds while nothing is in
#: flight: the first send puts a deque of the socket's own in its place,
#: and the ACK that empties that deque (or teardown) puts this one back.
#: Empty to every reader, and nothing is ever appended to it.  An idle
#: pooled connection, the common state of a back-office connection, then
#: holds no 760-byte empty deque on either side.
_NO_RTX: deque[_SentSegment] = deque(maxlen=0)

_SEQ = attrgetter("seq")

#: SACK blocks as they ride on a segment: ``(start, end)`` pairs.
_Blocks = tuple[tuple[int, int], ...]


def _merge(spans: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """``(start, end)`` spans, sorted, with overlapping or touching ones
    joined: the receiver's SACK blocks and the sender's scoreboard."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


class TcpSocket:
    """One endpoint of a TCP connection."""

    # Sockets dominate the simulation heap in cluster runs; __slots__
    # keeps them dict-free and makes the send/ack loops' attribute reads
    # offset loads.
    __slots__ = (
        "_host", "_sim", "_config",
        "local_port", "remote_address", "remote_port",
        "state", "is_client", "close_on_peer_fin",
        "cc", "_rtt",
        "_snd_una", "_snd_nxt", "_snd_buf_end", "_pending_marks",
        "_rtx_queue", "_sacked", "_lost_edge", "_high_rxt", "_peer_rwnd_bytes", "_dupacks",
        "_in_recovery", "_recover_seq",
        "_fin_queued",
        "_rto_event", "_rto_deadline",
        "_rcv_nxt", "_ooo", "_recv_marks", "_adv_wnd_bytes",
        "_peer_fin_received", "_delack_event", "_segments_since_ack",
        "on_established", "on_message", "on_closed", "on_error",
        "created_at", "established_at", "last_activity_at", "last_send_at",
        "bytes_acked", "bytes_received", "segments_sent", "segments_received",
        "segments_retransmitted", "messages_sent", "messages_received",
        "rtos_fired", "fast_retransmits", "_consecutive_rtos",
        "_obs_on", "_trace", "_m_retransmitted", "_m_rtos",
        "_m_fast_rexmit", "_m_opened", "_h_cwnd_at_close",
        "cwnd_source", "_flow", "_flow_ss_pending",
    )

    def __init__(
        self,
        host: "Host",
        local_port: int,
        remote_address: IPv4Address,
        remote_port: int,
        config: TcpConfig,
        initial_cwnd: int,
        initial_rwnd_segments: int,
        cwnd_source: str = "default",
    ) -> None:
        self._host = host
        self._sim = host.sim
        self._config = config
        self.local_port = local_port
        self.remote_address = remote_address
        self.remote_port = remote_port
        self.state = TcpState.CLOSED
        #: True for actively opened (outgoing) connections; set by connect().
        self.is_client = False
        #: When True, the socket closes itself as soon as the peer's FIN
        #: arrives (typical request/response server behaviour on EOF).
        self.close_on_peer_fin = False

        self.cc = make_congestion_control(
            config.congestion_control, initial_cwnd, config.mss
        )
        self._rtt = RttEstimator()

        # --- send side -------------------------------------------------
        self._snd_una = 0
        self._snd_nxt = 0
        self._snd_buf_end = 1  # data begins after the SYN's sequence slot
        self._pending_marks: list[MessageMark] = []
        self._rtx_queue = _NO_RTX
        # The scoreboard (RFC 6675): the ranges the peer has SACKed,
        # merged and ascending; every unSACKed byte below ``_lost_edge`` is
        # lost, and every one below ``_high_rxt`` (HighRxt) was resent in
        # this recovery.
        self._sacked: list[tuple[int, int]] | _Blocks = ()
        self._lost_edge = 0
        self._high_rxt = 0
        self._peer_rwnd_bytes = config.mss  # until the peer advertises
        self._dupacks = 0
        self._in_recovery = False
        #: RecoveryPoint: no new recovery until the cumulative ACK reaches it.
        self._recover_seq = 0
        self._fin_queued = False
        #: The retransmission timer: a deadline (None = disarmed) beside
        #: at most one pending kernel event.  A restart only moves the
        #: deadline; the event, firing early, re-schedules itself there.
        self._rto_deadline: float | None = None
        self._rto_event: Event | None = None

        # --- receive side ------------------------------------------------
        self._rcv_nxt = 0
        self._ooo: dict[int, Segment] = {}
        self._recv_marks: dict[int, MessageMark] = {}
        self._adv_wnd_bytes = initial_rwnd_segments * config.mss
        self._peer_fin_received = False
        self._delack_event: Event | None = None
        self._segments_since_ack = 0

        # --- callbacks ---------------------------------------------------
        self.on_established: Callable[[TcpSocket], None] | None = None
        self.on_message: Callable[[TcpSocket, Any, int], None] | None = None
        self.on_closed: Callable[[TcpSocket], None] | None = None
        self.on_error: Callable[[TcpSocket, str], None] | None = None

        # --- counters ------------------------------------------------------
        self.created_at = self._sim.now
        self.established_at: float | None = None
        self.last_activity_at = self._sim.now
        self.last_send_at = self._sim.now
        self.bytes_acked = 0
        self.bytes_received = 0
        self.segments_sent = 0
        self.segments_received = 0
        self.segments_retransmitted = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.rtos_fired = 0
        self.fast_retransmits = 0
        self._consecutive_rtos = 0

        # --- instrumentation (handles cached; see repro.obs) ---------------
        #: Where ``initial_cwnd`` came from: "route" / "hook" / "default".
        self.cwnd_source = cwnd_source
        obs = host.sim.obs
        self._obs_on = obs.enabled
        self._trace = obs.trace
        self._m_retransmitted = obs.metrics.counter("tcp_segments_retransmitted")
        self._m_rtos = obs.metrics.counter("tcp_rtos_fired")
        self._m_fast_rexmit = obs.metrics.counter("tcp_fast_retransmits")
        self._m_opened = obs.metrics.counter("tcp_connections_opened")
        self._h_cwnd_at_close = obs.metrics.histogram("tcp_cwnd_at_close")
        self._flow = obs.flows.begin(
            host=host.name,
            local=str(host.address),
            local_port=local_port,
            remote=str(remote_address),
            remote_port=remote_port,
            opened_at=self._sim.now,
            is_client=False,
            initial_cwnd=initial_cwnd,
            cwnd_source=cwnd_source,
        ) if self._obs_on else None
        self._flow_ss_pending = self._flow is not None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def config(self) -> TcpConfig:
        return self._config

    @property
    def srtt(self) -> float | None:
        return self._rtt.srtt

    @property
    def is_established(self) -> bool:
        return self.state is TcpState.ESTABLISHED

    @property
    def bytes_unacked(self) -> int:
        """Sequence space in flight (includes SYN/FIN slots)."""
        return self._snd_nxt - self._snd_una

    @property
    def is_idle(self) -> bool:
        """Established with nothing queued or in flight in either role."""
        return self.state is TcpState.ESTABLISHED and self.bytes_unacked == 0 and (
            self._snd_buf_end == self._snd_nxt
        )

    def connect(self) -> None:
        """Actively open: send the SYN (consumes one RTT before data)."""
        if self.state is not TcpState.CLOSED:
            raise TcpStateError(f"connect() in state {self.state}")
        self.is_client = True
        if self._flow is not None:
            self._flow.is_client = True
        self.state = TcpState.SYN_SENT
        self._send_control(syn=True)
        self._arm_rto()

    def accept_syn(self, segment: Segment) -> None:
        """Passively open in response to a received SYN (listener path)."""
        if self.state is not TcpState.CLOSED:
            raise TcpStateError(f"accept_syn() in state {self.state}")
        if not segment.syn:
            raise TcpStateError("accept_syn() requires a SYN segment")
        self.state = TcpState.SYN_RCVD
        self._rcv_nxt = segment.end_seq
        if segment.rwnd_bytes > 0:
            self._peer_rwnd_bytes = segment.rwnd_bytes
        self._send_control(syn=True)
        self._arm_rto()

    def send_message(self, payload: Any, size_bytes: int) -> None:
        """Queue an application message of ``size_bytes`` for delivery."""
        if size_bytes <= 0:
            raise ValueError(f"message size must be positive, got {size_bytes}")
        if self.state not in (
            TcpState.SYN_SENT,
            TcpState.SYN_RCVD,
            TcpState.ESTABLISHED,
            TcpState.CLOSE_WAIT,
        ):
            raise TcpStateError(f"send_message() in state {self.state}")
        if self._fin_queued:
            raise TcpStateError("send_message() after close()")
        self._snd_buf_end += size_bytes
        self._pending_marks.append(
            MessageMark(end_seq=self._snd_buf_end, payload=payload, size_bytes=size_bytes)
        )
        self.messages_sent += 1
        self._try_send()

    def close(self) -> None:
        """Orderly close: FIN after all queued data drains."""
        if self.state in (TcpState.CLOSED, TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2,
                          TcpState.LAST_ACK):
            return
        if self.state is TcpState.SYN_SENT:
            # Nothing committed yet; tear down silently.
            self._teardown(notify=True)
            return
        self._fin_queued = True
        self._try_send()

    def vanish(self) -> None:
        """Drop all state without sending anything (power loss / reboot).

        The peer's next segment draws a RST from the host; a peer that
        sends nothing finds out through its own timers.
        """
        if self.state is TcpState.CLOSED:
            return
        self._teardown(notify=True)

    def abort(self) -> None:
        """Send a best-effort RST and drop all state immediately."""
        if self.state is TcpState.CLOSED:
            return
        self._send_control(rst=True)
        self._teardown(notify=True)

    def stats_snapshot(self) -> SocketStats:
        """The ``ss``-visible view of this socket."""
        cc = self.cc
        # Positional, in SocketStats field order, like the fluid rows.
        return SocketStats(
            self.local_port, self.remote_address, self.remote_port, self.state,
            cc.cwnd_segments, cc.ssthresh, cc.initial_cwnd, self._rtt.srtt, self.bytes_acked,
            self.bytes_received, self.segments_sent, self.segments_retransmitted,
            self.created_at, self.established_at, self.last_activity_at, self.is_client,
        )

    # ------------------------------------------------------------------
    # segment ingress
    # ------------------------------------------------------------------

    def handle_segment(self, segment: Segment) -> None:
        """Process one segment addressed to this socket."""
        if self.state is TcpState.CLOSED:
            return
        self.segments_received += 1
        now = self._sim.now
        self.last_activity_at = now

        if segment.rst:
            self._error("connection reset by peer")
            return

        if segment.rwnd_bytes > 0:
            self._peer_rwnd_bytes = segment.rwnd_bytes

        if segment.syn:
            self._handle_syn_phase(segment, now)
            return

        if segment.is_ack:
            blocks = segment.sack_blocks if self._config.sack else ()
            ack = segment.ack
            if self._snd_una < ack <= self._snd_nxt:
                self._on_new_ack(ack, now, blocks)
            elif (
                ack == self._snd_una
                and ack < self._snd_nxt
                and self.state
                in (TcpState.ESTABLISHED, TcpState.FIN_WAIT_1, TcpState.CLOSE_WAIT,
                    TcpState.LAST_ACK)
            ):
                self._on_duplicate_ack(blocks)
            # Anything else acks data never sent, or is stale: ignored.

        if segment.payload_bytes > 0 or segment.fin:
            self._process_incoming_data(segment)

    def _handle_syn_phase(self, segment: Segment, now: float) -> None:
        if self.state is TcpState.SYN_SENT and segment.is_ack:
            # SYN-ACK: our SYN (seq slot 0) is acknowledged.
            self._rcv_nxt = segment.end_seq
            if self._snd_una < segment.ack <= self._snd_nxt:
                self._on_new_ack(segment.ack, now)
            self._become_established()
            self._send_pure_ack()
            self._try_send()
        elif self.state in (TcpState.SYN_RCVD, TcpState.ESTABLISHED):
            # Duplicate SYN (our SYN-ACK was lost): re-acknowledge.
            self._send_pure_ack()
        # A bare SYN to a connected socket in other states is ignored.

    def _become_established(self) -> None:
        self.state = TcpState.ESTABLISHED
        now = self._sim.now
        self.established_at = now
        self._m_opened.inc()
        if self._flow is not None:
            self._flow.established_at = now
            self._flow.syn_rtt = now - self.created_at
        if self._obs_on:
            self._trace.record(
                now,
                EventType.CONN_OPENED,
                self._host.name,
                remote=str(self.remote_address),
                initial_cwnd=self.cc.initial_cwnd,
                is_client=self.is_client,
            )
        # One-shot: dropped once it fires, so a pooled connection does
        # not keep its first exchange (the callback's closure) alive.
        callback = self.on_established
        if callback is not None:
            self.on_established = None
            callback(self)

    # ------------------------------------------------------------------
    # ACK processing (sender side)
    # ------------------------------------------------------------------

    def _on_new_ack(self, ack: int, now: float, blocks: _Blocks = ()) -> None:
        """``snd_una < ack <= snd_nxt``: the cumulative ACK moved forward."""
        acked_bytes = 0
        rtt_sample: float | None = None
        rtx_queue = self._rtx_queue
        while rtx_queue and rtx_queue[0].end_seq <= ack:
            entry = rtx_queue.popleft()
            acked_bytes += entry.payload_bytes
            if not entry.retransmitted:
                rtt_sample = now - entry.last_sent_at
        if not rtx_queue:
            self._rtx_queue = _NO_RTX  # everything acked: give the deque back
        self._snd_una = ack
        self._consecutive_rtos = 0
        if rtt_sample is not None:
            self._rtt.add_sample(rtt_sample)
        self.bytes_acked += acked_bytes
        # The cumulative ACK first, then the SACK blocks above it.
        if blocks or self._sacked:
            self._update_scoreboard(blocks)

        if self.state is TcpState.SYN_RCVD and ack >= 1:
            self._become_established()
        if self._in_recovery:
            if ack >= self._recover_seq:
                self._exit_recovery()
            else:  # a partial ACK: without SACK, the next hole starts here
                if not self._config.sack:
                    self._retransmit_head()  # RFC 6582 §3.2 step 5
                self._arm_rto()
        else:
            self._dupacks = 0
            cc = self.cc
            cc.on_ack(now, acked_bytes, self._rtt.srtt)
            if self._flow_ss_pending and cc.cwnd >= cc.ssthresh:
                self._note_ss_exit()

        if self._fin_queued and ack >= self._snd_nxt and not self._rtx_queue:
            self._close_transition(peer_fin=False)  # our FIN, if sent, is acked
        # Re-read: a callback above may have sent (a queue of its own) or
        # torn the socket down (the shared empty one).
        if self._rtx_queue:
            # Restart the timer.  A sample has already cleared any backoff
            # (``add_sample``); otherwise it is cleared here, after the
            # recovery step above has armed with the backed-off value.
            if rtt_sample is None:
                self._rtt.reset_backoff()
            deadline = now + self._rtt.rto
            event = self._rto_event
            if event is not None and deadline >= event.time:
                self._rto_deadline = deadline  # the usual case: only moves
            else:
                self._arm_rto()
        else:
            self._cancel_rto()
        self._try_send()

    def _on_duplicate_ack(self, blocks: _Blocks) -> None:
        if blocks:
            self._update_scoreboard(blocks)
        self._dupacks += 1
        if self._in_recovery:
            self._try_send()
        elif self._dupacks >= DUPACK_THRESHOLD and self._snd_una >= self._recover_seq:
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        """Fast retransmit (RFC 5681 §3.2, RFC 6675 §5 step 4)."""
        self._in_recovery = True
        self._recover_seq = self._snd_nxt
        self.cc.on_loss_event(self._sim.now)
        self.cc.cwnd = max(self.cc.ssthresh, 1.0)
        self.fast_retransmits += 1
        self._m_fast_rexmit.inc()
        if self._flow_ss_pending:
            self._note_ss_exit()
        if self._obs_on:
            self._trace.record(
                self._sim.now,
                EventType.FAST_RETRANSMIT,
                self._host.name,
                remote=str(self.remote_address),
                port=self.local_port,
                remote_port=self.remote_port,
                cwnd=self.cc.cwnd_segments,
            )
        self._high_rxt = self._snd_una
        if self._sacked:
            self._update_scoreboard(())
        self._retransmit_head()
        self._arm_rto()

    def _exit_recovery(self) -> None:
        self._in_recovery = False
        self._dupacks = 0
        # Losses the scoreboard saw above the recovery point wait for a
        # recovery of their own.
        self._lost_edge = self._snd_una
        self.cc.after_recovery()

    # ------------------------------------------------------------------
    # the scoreboard (sender side)
    # ------------------------------------------------------------------

    def _update_scoreboard(self, blocks: _Blocks) -> None:
        """Merge SACK blocks into the SACKed ranges, dropping what the
        cumulative ACK now covers.  In recovery, move the lost edge up to
        where RFC 6675's ``IsLost`` holds: below the lowest range with more
        than ``(DupThresh - 1) * SMSS`` bytes, or ``DupThresh`` ranges,
        SACKed above it."""
        una, nxt = self._snd_una, self._snd_nxt
        spans = [(max(lo, una), min(hi, nxt)) for lo, hi in (*self._sacked, *blocks)]
        ranges = _merge(span for span in spans if span[0] < span[1])
        self._sacked = ranges or ()
        if self._in_recovery:
            limit, sacked = (DUPACK_THRESHOLD - 1) * self._config.mss, 0
            for count, (lo, hi) in enumerate(reversed(ranges), 1):
                sacked += hi - lo
                if sacked > limit or count >= DUPACK_THRESHOLD:
                    self._lost_edge = max(self._lost_edge, lo)
                    break

    def _pipe(self) -> int:
        """RFC 6675 SetPipe: each unSACKed byte in flight counts once
        unless lost and once more if resent.  Without SACK, each dupACK in
        recovery says one segment has left the network (RFC 5681 §3.2)."""
        una = self._snd_una
        pipe = self._snd_nxt - una
        if self._in_recovery and not self._config.sack:
            pipe -= self._dupacks * self._config.mss
        lost, resent = self._lost_edge, self._high_rxt
        if lost > una or resent > una or self._sacked:
            lost, resent = max(lost, una), max(resent, una)
            pipe += resent - lost
            for lo, hi in self._sacked:
                pipe -= max(0, hi - max(lo, lost)) + max(0, min(hi, resent) - lo)
        return pipe

    # ------------------------------------------------------------------
    # data ingress (receiver side)
    # ------------------------------------------------------------------

    def _process_incoming_data(self, segment: Segment) -> None:
        if segment.end_seq <= self._rcv_nxt:
            # Entirely old (a retransmission we already have): re-ACK.
            self._send_pure_ack()
            return
        if segment.seq > self._rcv_nxt:
            # A hole precedes this segment: buffer it, emit a dup ACK.
            self._ooo.setdefault(segment.seq, segment)
            self._send_pure_ack(segment.seq)
            return
        self._absorb_in_order(segment)
        while self._rcv_nxt in self._ooo:
            self._absorb_in_order(self._ooo.pop(self._rcv_nxt))
        if self._recv_marks:
            self._deliver_completed_messages()
        if self._peer_fin_received:
            self._close_transition(peer_fin=True)
            if self.state is TcpState.CLOSED or self.state is TcpState.LAST_ACK:
                # The transition answered the FIN: with an ACK before the
                # teardown (FIN_WAIT_2), or with our own FIN.
                self._cancel_delack()
                return
        # Acknowledge now, or hold the ACK for a second segment or the
        # delayed-ACK timer.  ``_ooo`` is read only here, after delivery,
        # which may have torn the socket down.
        if segment.fin or self._ooo or not self._config.delayed_ack:
            self._send_pure_ack()
            return
        self._segments_since_ack += 1
        if self._segments_since_ack >= 2:
            self._send_pure_ack()
        elif self._delack_event is None:
            self._delack_event = self._sim.schedule(
                DELAYED_ACK_TIMEOUT, self._on_delayed_ack_timer
            )

    def _absorb_in_order(self, segment: Segment) -> None:
        delivered = segment.end_seq - self._rcv_nxt
        payload_delivered = min(segment.payload_bytes, delivered)
        self._rcv_nxt = segment.end_seq
        self.bytes_received += payload_delivered
        for mark in segment.marks:
            self._recv_marks[mark.end_seq] = mark
        if segment.fin:
            self._peer_fin_received = True
        # Receive-window auto-tuning: grow with delivered data so the
        # window keeps ahead of a slow-start sender (Section III-C).
        self._adv_wnd_bytes = min(
            self._adv_wnd_bytes + 2 * payload_delivered,
            self._config.rmem_max_bytes,
        )

    def _deliver_completed_messages(self) -> None:
        ready = sorted(seq for seq in self._recv_marks if seq <= self._rcv_nxt)
        for seq in ready:
            mark = self._recv_marks.pop(seq)
            self.messages_received += 1
            if self.on_message is not None:
                self.on_message(self, mark.payload, mark.size_bytes)

    # ------------------------------------------------------------------
    # ACK emission
    # ------------------------------------------------------------------

    def _on_delayed_ack_timer(self) -> None:
        self._delack_event = None
        if self._segments_since_ack > 0:
            self._send_pure_ack()

    def _send_pure_ack(self, trigger: int = 0) -> None:
        self._segments_since_ack = 0
        if self._delack_event is not None:
            self._cancel_delack()
        # One per received data segment: built positionally (a keyword
        # call costs a name match per field) and sent without the
        # ``_emit`` hop.  Fields in order: addresses, ports, seq, ack,
        # payload_bytes, syn, fin, rst, is_ack, rwnd_bytes, marks,
        # sack_blocks.
        host = self._host
        segment = Segment(
            host.address, self.remote_address, self.local_port, self.remote_port,
            self._snd_nxt, self._rcv_nxt, 0, False, False, False, True,
            self._adv_wnd_bytes, (), self._current_sack_blocks(trigger) if self._ooo else (),
        )
        self.segments_sent += 1
        self.last_activity_at = self.last_send_at = self._sim.now
        host.send_packet(segment)

    #: RFC 2018 caps the option at 3-4 blocks; we use 4.
    MAX_SACK_BLOCKS = 4

    def _current_sack_blocks(self, trigger: int) -> _Blocks:
        """The out-of-order store as SACK blocks: first the one holding
        ``trigger``, the segment this ACK answers (RFC 2018 §4), then the
        highest, capped."""
        if not self._config.sack:
            return ()
        ranges = _merge((seq, segment.end_seq) for seq, segment in self._ooo.items())
        ranges.sort(key=lambda block: (not block[0] <= trigger < block[1], -block[0]))
        return tuple(ranges[: self.MAX_SACK_BLOCKS])

    def _cancel_delack(self) -> None:
        self._segments_since_ack = 0
        if self._delack_event is not None:
            self._sim.cancel(self._delack_event)
            self._delack_event = None

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def _try_send(self) -> None:
        """The send rule, for new data and resent data alike: put a segment
        out only while ``cwnd - pipe`` holds it.  Lost data goes first,
        lowest first and once per recovery (RFC 6675 NextSeg rule 1); new
        data must also fit under the receive window's right edge (rule 2)."""
        mss = self._config.mss
        resend = self._high_rxt
        if resend < self._snd_una:
            resend = self._snd_una
        lost = self._lost_edge
        if resend < lost:
            room = self.cc.cwnd_segments * mss - self._pipe()
            queue, sacked, index = self._rtx_queue, self._sacked, 0
            while resend < lost:
                if index < len(sacked) and sacked[index][0] <= resend:
                    resend = max(resend, sacked[index][1])  # skip what is SACKed
                    index += 1
                    continue
                if room < mss:
                    break
                entry = queue[bisect_right(queue, resend, key=_SEQ) - 1]
                self._retransmit_entry(entry)
                room -= entry.end_seq - entry.seq
                resend = self._high_rxt = entry.end_seq
        state = self.state
        if (
            state is not TcpState.ESTABLISHED
            and state is not TcpState.CLOSE_WAIT
            and state is not TcpState.FIN_WAIT_1
        ):
            return
        sent_any = False
        buf_end = self._snd_buf_end
        snd_nxt = self._snd_nxt
        if snd_nxt < buf_end:
            now = self._sim.now
            # A fresh burst (nothing in flight, data sent before) may
            # first have to collapse the window: before it is read.
            if (
                snd_nxt == self._snd_una
                and snd_nxt > 1
                and self._config.slow_start_after_idle
            ):
                self._restart_after_idle(now)
            # The room only changes on ACK/loss events, never on our own
            # transmissions, so compute it once and track it locally.  The
            # window is ``cwnd_segments`` in line (``cwnd`` is never
            # negative), and pipe is the flight while ``_pipe`` would find
            # nothing SACKed, lost or resent to count.
            una = self._snd_una
            if self._in_recovery or self._sacked or self._lost_edge > una or self._high_rxt > una:
                pipe = self._pipe()
            else:
                pipe = snd_nxt - una
            room = (int(self.cc.cwnd) or 1) * mss - pipe
            right_edge = una + self._peer_rwnd_bytes - snd_nxt
            if right_edge < room:
                room = right_edge
            while snd_nxt < buf_end:
                size = buf_end - snd_nxt
                if size > mss:
                    size = mss
                if room < size:
                    break
                self._send_data_segment(size, now)
                snd_nxt += size
                room -= size
                sent_any = True
        if self._fin_queued and state is not TcpState.FIN_WAIT_1 and snd_nxt == buf_end:
            self.state = (
                TcpState.FIN_WAIT_1 if state is TcpState.ESTABLISHED else TcpState.LAST_ACK
            )
            self._send_control(fin=True)
            sent_any = True
        if sent_any and self._rto_deadline is None and self._rtx_queue:
            self._arm_rto()

    def _restart_after_idle(self, now: float) -> None:
        """RFC 2861: collapse the window of a long-idle connection back to
        its initial (route-resolved) value before a fresh burst.

        Called with nothing in flight and unsent data queued behind data
        already sent (a connection that never sent starts from its
        initial window anyway).
        """
        # Like the kernel's lsndtime check: idleness is measured from our
        # last transmission, not from the peer's latest packet.
        idle = now - self.last_send_at
        if idle > self._rtt.rto and self.cc.cwnd > self.cc.initial_cwnd:
            self.cc.cwnd = float(self.cc.initial_cwnd)

    def _send_data_segment(self, size: int, now: float) -> None:
        seq = self._snd_nxt
        end = seq + size
        # Marks are queued in sequence order, so unless the first one ends
        # inside this segment none does and there is nothing to trim.
        marks: tuple[MessageMark, ...] = ()
        pending = self._pending_marks
        if pending and pending[0].end_seq <= end:
            marks = tuple(mark for mark in pending if seq < mark.end_seq <= end)
            self._pending_marks = [mark for mark in pending if mark.end_seq > end]
        self._snd_nxt = end
        rtx_queue = self._rtx_queue
        if rtx_queue is _NO_RTX:
            rtx_queue = self._rtx_queue = deque()
        rtx_queue.append(_SentSegment(seq, end, size, False, False, marks, now))
        # Positional and without the ``_emit`` hop, like ``_send_pure_ack``.
        host = self._host
        segment = Segment(
            host.address, self.remote_address, self.local_port, self.remote_port,
            seq, self._rcv_nxt, size, False, False, False, True, self._adv_wnd_bytes,
            marks,
        )
        self.segments_sent += 1
        self.last_activity_at = self.last_send_at = now
        host.send_packet(segment)

    def _send_control(self, syn: bool = False, fin: bool = False, rst: bool = False) -> None:
        """Send a SYN, FIN or RST.  A SYN or FIN takes one sequence slot
        and waits in the retransmission queue; only the opening SYN (from
        SYN_SENT) carries no ACK."""
        seq = self._snd_nxt
        with_ack = not (syn and self.state is TcpState.SYN_SENT)
        segment = Segment(
            self._host.address, self.remote_address, self.local_port, self.remote_port,
            seq, self._rcv_nxt if with_ack else 0, 0, syn, fin, rst, with_ack,
            self._adv_wnd_bytes,
        )
        if not rst:
            self._snd_nxt = seq + 1
            if self._rtx_queue is _NO_RTX:
                self._rtx_queue = deque()
            self._rtx_queue.append(_SentSegment(seq, seq + 1, 0, syn, fin, (), self._sim.now))
        self._emit(segment)

    def _retransmit_head(self) -> None:
        """Presume the first unacknowledged segment lost and resend it now,
        whatever the window: a fast retransmit, NewReno's partial ACK, a
        timeout."""
        head = self._rtx_queue[0]
        if self._lost_edge < head.end_seq:
            self._lost_edge = head.end_seq
        self._high_rxt = head.end_seq
        self._retransmit_entry(head)

    def _retransmit_entry(self, entry: _SentSegment) -> None:
        entry.retransmitted = True
        entry.last_sent_at = self._sim.now
        self.segments_retransmitted += 1
        self._m_retransmitted.inc()
        with_ack = self.state is not TcpState.SYN_SENT
        self._emit(Segment(
            self._host.address, self.remote_address, self.local_port, self.remote_port,
            entry.seq, self._rcv_nxt if with_ack else 0, entry.payload_bytes, entry.syn,
            entry.fin, False, with_ack, self._adv_wnd_bytes, entry.marks,
        ))

    def _emit(self, segment: Segment) -> None:
        """Send a control segment or a retransmission (the per-packet
        senders, ``_send_data_segment`` and ``_send_pure_ack``, do this
        inline)."""
        self.segments_sent += 1
        self.last_activity_at = self.last_send_at = self._sim.now
        self._host.send_packet(segment)

    # ------------------------------------------------------------------
    # RTO timer
    # ------------------------------------------------------------------

    def _arm_rto(self) -> None:
        """(Re)start the timer: it now expires one RTO from now.

        A deadline at or after the pending event is only stored.  An
        *earlier* one (the RTO shrank: first RTT sample, backoff reset)
        must replace the event, or the timeout would come late.
        """
        deadline = self._sim.now + self._rtt.rto
        self._rto_deadline = deadline
        event = self._rto_event
        if event is not None:
            if deadline >= event.time:
                return
            self._sim.cancel(event)
        self._rto_event = self._sim.schedule_at(deadline, self._on_rto)

    def _cancel_rto(self) -> None:
        """Disarm, and take the pending event off the heap with it."""
        self._rto_deadline = None
        if self._rto_event is not None:
            self._sim.cancel(self._rto_event)
            self._rto_event = None

    #: Retry limits in the spirit of tcp_syn_retries / tcp_retries2.
    MAX_SYN_RETRIES = 6
    MAX_DATA_RETRIES = 15

    def _on_rto(self) -> None:
        self._rto_event = None
        deadline = self._rto_deadline
        if deadline is None:
            return
        now = self._sim.now
        if now < deadline:
            # ACKs pushed the deadline back since this event was set.
            self._rto_event = self._sim.schedule_at(deadline, self._on_rto)
            return
        self._rto_deadline = None
        self.rtos_fired += 1
        self._consecutive_rtos += 1
        self._m_rtos.inc()
        if self._obs_on:
            self._trace.record(
                now,
                EventType.RTO_FIRED,
                self._host.name,
                remote=str(self.remote_address),
                port=self.local_port,
                remote_port=self.remote_port,
                consecutive=self._consecutive_rtos,
            )
        self._rtt.back_off()
        in_handshake = self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD)
        retry_limit = self.MAX_SYN_RETRIES if in_handshake else self.MAX_DATA_RETRIES
        if self._consecutive_rtos > retry_limit:
            # Give up on an unanswerable peer, like the kernel's
            # tcp_syn_retries / tcp_retries2 limits.
            self._error("connect timeout" if in_handshake else "transfer timeout")
            return
        self.cc.on_retransmit_timeout(now)
        self._in_recovery = False
        self._dupacks = 0
        self._high_rxt = self._snd_una
        if self._config.sack:
            # RFC 2018 §8: the peer may have reneged, so the SACKed marks
            # go; everything outstanding is lost and resent as the window
            # reopens, and no fast retransmit starts below the recovery
            # point (RFC 6675 §5.1).
            self._sacked = ()
            self._lost_edge = self._recover_seq = self._snd_nxt
        else:
            # Two NewReno gaps, kept for now: only the head is resent, and
            # ``recover`` is forgotten (RFC 6582 §4).
            self._recover_seq = self._snd_una
        self._retransmit_head()
        self._arm_rto()

    # ------------------------------------------------------------------
    # close transitions and teardown
    # ------------------------------------------------------------------

    def _close_transition(self, peer_fin: bool) -> None:
        """Our FIN was acknowledged (``peer_fin`` False), or the peer's FIN
        was absorbed in order (True): move the close side of the state
        machine by RFC 793, with TIME_WAIT collapsed into CLOSED.

        ===========  ========================  ==========================
        state        our FIN acknowledged      peer's FIN absorbed
        ===========  ========================  ==========================
        ESTABLISHED  (FIN not sent yet)        CLOSE_WAIT, then close()
                                               if ``close_on_peer_fin``
        FIN_WAIT_1   FIN_WAIT_2, or CLOSED if  stays (simultaneous close,
                     the peer's FIN is in      RFC 793's CLOSING)
        FIN_WAIT_2   (cannot happen)           ACK it, CLOSED
        CLOSE_WAIT   (FIN not sent yet)        (cannot happen)
        LAST_ACK     CLOSED                    (cannot happen)
        ===========  ========================  ==========================

        Sending the FIN, once ``close()`` has queued it and the data
        ahead of it is out, moves ESTABLISHED to FIN_WAIT_1 and
        CLOSE_WAIT to LAST_ACK (``_try_send``).

        There is no TIME_WAIT and no CLOSING state: no close ordering here
        needs port reuse modelled.  A segment that arrives after teardown
        finds no socket, and the host answers it with RFC 793's reset
        (``Host.receive_packet``), so a peer whose FIN's ACK was lost is
        reset by its retransmitted FIN instead of re-ACKed from TIME_WAIT.
        """
        state = self.state
        if peer_fin:
            if state is TcpState.ESTABLISHED:
                self.state = TcpState.CLOSE_WAIT
                if self.close_on_peer_fin:
                    self.close()
            elif state is TcpState.FIN_WAIT_2:
                self._send_pure_ack()
                self._teardown(notify=True)
        elif state is TcpState.FIN_WAIT_1:
            if self._peer_fin_received:
                self._teardown(notify=True)
            else:
                self.state = TcpState.FIN_WAIT_2
        elif state is TcpState.LAST_ACK:
            self._teardown(notify=True)

    def _error(self, reason: str) -> None:
        if self._flow is not None:
            self._flow.error = reason
        callback = self.on_error
        self._teardown(notify=False)
        if callback is not None:
            callback(self, reason)

    def _teardown(self, notify: bool) -> None:
        if self.established_at is not None:
            self._h_cwnd_at_close.observe(self.cc.cwnd_segments)
        if self._flow is not None:
            self._flow.final_state = self.state.value
            self._flow.closed_at = self._sim.now
            self.sync_flow()
            self._flow = None
            self._flow_ss_pending = False
        self.state = TcpState.CLOSED
        self._cancel_rto()
        self._cancel_delack()
        self._rtx_queue = _NO_RTX
        self._sacked = ()
        self._lost_edge = self._high_rxt = 0
        self._ooo.clear()
        self._host.socket_closed(self)
        if notify and self.on_closed is not None:
            self.on_closed(self)

    # ------------------------------------------------------------------
    # flow-record upkeep
    # ------------------------------------------------------------------

    def _note_ss_exit(self) -> None:
        """Stamp the flow record the first time the socket leaves slow
        start: the caller has seen ``cwnd >= ssthresh``."""
        flow = self._flow
        if flow is not None:
            flow.ss_exit_at = self._sim.now
            flow.ss_exit_cwnd = self.cc.cwnd_segments
        self._flow_ss_pending = False

    def sync_flow(self) -> None:
        """Copy the live counters into this socket's flow record.

        Teardown calls this; :meth:`~repro.cdn.cluster.CdnCluster.sync_flows`
        also calls it at end of run so flows still open report their
        counters as of the run's last instant.
        """
        flow = self._flow
        if flow is None:
            return
        flow.bytes_acked = self.bytes_acked
        flow.bytes_received = self.bytes_received
        flow.segments_sent = self.segments_sent
        flow.segments_retransmitted = self.segments_retransmitted
        flow.rtos = self.rtos_fired
        flow.fast_retransmits = self.fast_retransmits

    def __repr__(self) -> str:
        ssthresh = self.cc.ssthresh
        ssthresh_text = "inf" if math.isinf(ssthresh) else f"{ssthresh:.0f}"
        return (
            f"<TcpSocket {self._host.address}:{self.local_port} -> "
            f"{self.remote_address}:{self.remote_port} {self.state.value} "
            f"cwnd={self.cc.cwnd_segments} ssthresh={ssthresh_text}>"
        )
