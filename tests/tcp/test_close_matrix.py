"""The close matrix: every way a connection here ends, held against RFC 793.

Each cell drives one close ordering on a :class:`TwoHostTestbed` and
records, per end, the state sequence its socket walks (every assignment
to ``TcpSocket.state``) and every segment its host receives after the
handshake, in tcpdump's flag notation (``S``/``F``/``R``, ``.`` for ACK,
``:n`` for payload bytes, ``!`` when no socket took the segment).  A cell
pins today's behaviour exactly — states, segments, ``packets_unmatched``
per host, retransmissions — and then checks ``pending_events == 0``:
the cell's last phase (``SETTLE``) is shorter than ``MIN_RTO``, so a
retransmission timer that outlived its socket is still on the heap.

Every observed walk must follow :data:`RFC793` (``TIME_WAIT`` collapsed
into ``CLOSED``; ``TcpState`` has no ``CLOSING``, so a simultaneous close
goes ``FIN_WAIT_1`` → ``CLOSED``).  Each FIN is ACKed once: an orderly
close costs four segments (FIN, ACK, FIN, ACK), a ``close_on_peer_fin``
server's close three (its FIN carries the ACK), and neither leaves a
segment that no socket takes.  A host answers such a segment, unless it
is a RST, with RFC 793's reset: a close in ``SYN_SENT`` ends the peer's
handshake after one SYN-ACK, and the ACKs of data sent before an
``abort()`` draw RSTs that nothing answers.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import pytest

from repro.tcp.constants import MIN_RTO, TcpConfig
from repro.tcp.socket import TcpSocket, TcpState
from repro.tcp.wire import Segment
from repro.testing import TwoHostTestbed

RTT = 0.100
PORT = 80
#: The last phase of every cell: long enough for FIN, FIN and ACK to
#: cross, shorter than any retransmission timeout.
SETTLE = 1.8 * RTT
#: A phase that leaves room for one retransmission timeout (the RTO after
#: the handshake's sample is 3 RTTs).
RECOVER = 5 * RTT

assert SETTLE < MIN_RTO

C, SS, SR, E = TcpState.CLOSED, TcpState.SYN_SENT, TcpState.SYN_RCVD, TcpState.ESTABLISHED
FW1, FW2, CW, LA = (
    TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2, TcpState.CLOSE_WAIT, TcpState.LAST_ACK,
)

#: RFC 793's state diagram as this stack implements it: state -> the
#: states one event can move it to.  Any state may also go to CLOSED on
#: ``abort()`` (RST out) or a received RST.
RFC793: dict[TcpState, frozenset[TcpState]] = {
    C: frozenset({SS, SR}),  # connect() / a SYN at a listener
    SS: frozenset({E, C}),  # SYN-ACK / close() or connect timeout
    SR: frozenset({E, C}),  # ACK of our SYN / connect timeout
    E: frozenset({FW1, CW}),  # close() sends FIN / the peer's FIN
    FW1: frozenset({FW2, C}),  # ACK of our FIN / FIN after ours (CLOSING, TIME_WAIT)
    FW2: frozenset({C}),  # the peer's FIN (TIME_WAIT)
    CW: frozenset({LA}),  # close() sends FIN
    LA: frozenset({C}),  # ACK of our FIN
}

CLIENT_OPEN = (C, SS, E)
SERVER_OPEN = (C, SR, E)


def _flags(segment: Segment) -> str:
    text = "".join(
        flag for flag, on in (("S", segment.syn), ("F", segment.fin), ("R", segment.rst)) if on
    )
    text += "." if segment.is_ack else ""
    return f"{text}:{segment.payload_bytes}" if segment.payload_bytes else text


class _Run:
    """One cell's testbed, its two sockets and everything observed."""

    def __init__(self, delayed_ack: bool, close_on_peer_fin: bool) -> None:
        config = TcpConfig(delayed_ack=delayed_ack)
        self.bed = TwoHostTestbed(rtt=RTT, client_config=config, server_config=config)
        self.received: dict[str, list[str]] = {"client": [], "server": []}
        self._drop_fin_from: str | None = None
        for name in self.received:
            self._tap(name)

        def on_accept(sock: TcpSocket) -> None:
            sock.close_on_peer_fin = close_on_peer_fin

        self.bed.server.listen(PORT, on_accept=on_accept)
        self.client = self.bed.client.connect(self.bed.server.address, PORT)
        self.server: TcpSocket | None = None

    def _tap(self, name: str) -> None:
        host = getattr(self.bed, name)
        receive, send = host.receive_packet, host.send_packet

        def tapped_receive(packet: Segment) -> None:
            before = host.packets_unmatched
            receive(packet)
            unmatched = "!" if host.packets_unmatched > before else ""
            self.received[name].append(_flags(packet) + unmatched)

        def tapped_send(packet: Segment) -> None:
            if self._drop_fin_from == name and packet.fin:
                self._drop_fin_from = None  # lose this one FIN only
                return
            send(packet)

        host.receive_packet = tapped_receive
        host.send_packet = tapped_send

    def establish(self) -> None:
        self.run(2 * RTT)
        (self.server,) = self.bed.server.sockets()
        assert self.client.is_established and self.server.is_established
        for segments in self.received.values():
            segments.clear()

    def run(self, seconds: float) -> None:
        self.bed.sim.run(until=self.bed.sim.now + seconds)

    def lose_next_fin(self, name: str) -> None:
        self._drop_fin_from = name


Script = Callable[[_Run], None]


def _active(run: _Run) -> None:
    run.client.close()
    run.run(SETTLE)
    run.server.close()
    run.run(SETTLE)


def _passive(run: _Run) -> None:
    run.server.close()
    run.run(SETTLE)
    run.client.close()
    run.run(SETTLE)


def _simultaneous(run: _Run) -> None:
    run.client.close()
    run.server.close()
    run.run(SETTLE)


def _pooled(run: _Run) -> None:
    run.client.close()  # the server's close_on_peer_fin answers
    run.run(SETTLE)


def _client_fin_lost(run: _Run) -> None:
    run.lose_next_fin("client")
    run.client.close()
    run.run(RECOVER)
    run.server.close()
    run.run(SETTLE)


def _server_fin_lost(run: _Run) -> None:
    run.client.close()
    run.run(SETTLE)
    run.lose_next_fin("server")
    run.server.close()
    run.run(RECOVER)


def _behind_data(run: _Run) -> None:
    run.client.send_message("upload", 5_000)
    run.client.close()
    run.run(SETTLE)
    run.server.close()
    run.run(SETTLE)


def _pooled_behind_data(run: _Run) -> None:
    run.client.send_message("upload", 3_000)  # three segments: one ACK held back
    run.client.close()
    run.run(SETTLE)


def _abort_established(run: _Run) -> None:
    run.client.abort()
    run.run(SETTLE)


def _abort_behind_data(run: _Run) -> None:
    run.client.send_message("upload", 5_000)
    run.client.abort()  # the RST follows the data at once
    run.run(SETTLE)


def _abort_fin_wait_2(run: _Run) -> None:
    run.client.close()
    run.run(SETTLE)
    assert run.client.state is FW2
    run.client.abort()
    run.run(SETTLE)


def _abort_close_wait(run: _Run) -> None:
    run.server.close()
    run.run(SETTLE)
    assert run.client.state is CW
    run.client.abort()
    run.run(SETTLE)


def _close_in_syn_sent(run: _Run) -> None:
    run.client.close()
    # The client's host resets the server's first SYN-ACK.
    run.bed.sim.run()


class Cell(NamedTuple):
    script: Script
    #: The walks after the handshake (the whole walk when it never opens).
    client_states: tuple[TcpState, ...]
    server_states: tuple[TcpState, ...]
    #: What each host receives after the handshake, space-separated.
    client_rx: str
    server_rx: str
    #: ``packets_unmatched`` per host and retransmitted segments per end.
    unmatched: tuple[int, int]
    retransmits: tuple[int, int] = (0, 0)
    delayed_ack: bool = False
    close_on_peer_fin: bool = False
    opens: bool = True
    #: Ends by RST (``abort()``), which RFC 793 allows from any state.
    resets: bool = False


_ACTIVE = dict(
    client_states=(FW1, FW2, C), server_states=(CW, LA, C),
    client_rx=". F.", server_rx="F. .", unmatched=(0, 0),
)

CELLS: dict[str, Cell] = {
    "active": Cell(_active, **_ACTIVE),
    "active-delack": Cell(_active, delayed_ack=True, **_ACTIVE),
    "passive": Cell(
        _passive, client_states=(CW, LA, C), server_states=(FW1, FW2, C),
        client_rx="F. .", server_rx=". F.", unmatched=(0, 0),
    ),
    "simultaneous": Cell(
        _simultaneous, client_states=(FW1, C), server_states=(FW1, C),
        client_rx="F. .", server_rx="F. .", unmatched=(0, 0),
    ),
    "pooled-close-on-peer-fin": Cell(
        _pooled, close_on_peer_fin=True,
        client_states=(FW1, FW2, C), server_states=(CW, LA, C),
        client_rx="F.", server_rx="F. .", unmatched=(0, 0),
    ),
    "client-fin-lost": Cell(
        _client_fin_lost, retransmits=(1, 0), **_ACTIVE,
    ),
    "server-fin-lost": Cell(
        _server_fin_lost, retransmits=(0, 1), **_ACTIVE,
    ),
    # The data, then a bare FIN: the FIN never rides on the last segment.
    "behind-data": Cell(
        _behind_data, client_states=(FW1, FW2, C), server_states=(CW, LA, C),
        client_rx=". . . . . F.", server_rx=".:1460 .:1460 .:1460 .:620 F. .",
        unmatched=(0, 0),
    ),
    "behind-data-delack": Cell(
        _behind_data, delayed_ack=True, client_states=(FW1, FW2, C), server_states=(CW, LA, C),
        client_rx=". . . F.", server_rx=".:1460 .:1460 .:1460 .:620 F. .",
        unmatched=(0, 0),
    ),
    # The FIN arrives with the server's delayed ACK pending; the server's
    # own FIN carries that ACK, so the timer goes with it.
    "pooled-behind-data-delack": Cell(
        _pooled_behind_data, delayed_ack=True, close_on_peer_fin=True,
        client_states=(FW1, FW2, C), server_states=(CW, LA, C),
        client_rx=". F.", server_rx=".:1460 .:1460 .:80 F. .", unmatched=(0, 0),
    ),
    "abort-established": Cell(
        _abort_established, resets=True, client_states=(C,), server_states=(C,),
        client_rx="", server_rx="R.", unmatched=(0, 0),
    ),
    # The data still unacknowledged: the client's retransmission timer
    # is armed when abort() tears the socket down.  The server's ACKs of
    # it reach a closed port and draw RSTs, which nothing answers.
    "abort-behind-data": Cell(
        _abort_behind_data, resets=True, client_states=(C,), server_states=(C,),
        client_rx=".! .! .! .!", server_rx=".:1460 .:1460 .:1460 .:620 R. R! R! R! R!",
        unmatched=(4, 4),
    ),
    "abort-fin-wait-2": Cell(
        _abort_fin_wait_2, resets=True, client_states=(FW1, FW2, C), server_states=(CW, C),
        client_rx=".", server_rx="F. R.", unmatched=(0, 0),
    ),
    "abort-close-wait": Cell(
        _abort_close_wait, resets=True, client_states=(CW, C), server_states=(FW1, FW2, C),
        client_rx="F.", server_rx=". R.", unmatched=(0, 0),
    ),
    # A closed port answers with a RST (here with ``seq`` = the SYN-ACK's
    # ACK), which ends the server's handshake after its first SYN-ACK.
    "close-in-syn-sent": Cell(
        _close_in_syn_sent, opens=False,
        client_states=(C, SS, C), server_states=(C, SR, C),
        client_rx="S.!", server_rx="S R", unmatched=(1, 0),
    ),
}


@pytest.fixture
def state_log(monkeypatch: pytest.MonkeyPatch) -> dict[TcpSocket, list[TcpState]]:
    """Every state each socket takes, in order, from its construction on."""
    log: dict[TcpSocket, list[TcpState]] = {}
    slot = TcpSocket.__dict__["state"]

    def record(sock: TcpSocket, state: TcpState) -> None:
        walk = log.setdefault(sock, [])
        if not walk or walk[-1] is not state:
            walk.append(state)
        slot.__set__(sock, state)

    monkeypatch.setattr(TcpSocket, "state", property(slot.__get__, record))
    return log


def _play(cell: Cell, state_log: dict[TcpSocket, list[TcpState]]) -> _Run:
    run = _Run(cell.delayed_ack, cell.close_on_peer_fin)
    if cell.opens:
        run.establish()
    cell.script(run)
    if run.server is None:
        (run.server,) = [sock for sock in state_log if sock is not run.client]
    return run


@pytest.mark.parametrize("name", CELLS)
def test_cell(name: str, state_log: dict[TcpSocket, list[TcpState]]) -> None:
    cell = CELLS[name]
    run = _play(cell, state_log)
    open_c, open_s = (CLIENT_OPEN, SERVER_OPEN) if cell.opens else ((), ())
    assert tuple(state_log[run.client]) == open_c + cell.client_states
    assert tuple(state_log[run.server]) == open_s + cell.server_states
    for walk in state_log.values():
        for before, after in zip(walk, walk[1:]):
            assert after in RFC793[before] or (after is C and cell.resets), walk
    assert run.received == {"client": cell.client_rx.split(), "server": cell.server_rx.split()}
    bed = run.bed
    assert (bed.client.packets_unmatched, bed.server.packets_unmatched) == cell.unmatched
    assert (run.client.segments_retransmitted, run.server.segments_retransmitted) == (
        cell.retransmits
    )
    assert run.client.state is C and run.server.state is C
    assert not bed.client.sockets() and not bed.server.sockets()
    assert bed.sim.pending_events == 0


@pytest.mark.parametrize(
    "name", [name for name, cell in CELLS.items() if cell.opens and not cell.resets]
)
def test_rfc793_segments(name: str, state_log: dict[TcpSocket, list[TcpState]]) -> None:
    """An orderly close ACKs each FIN once, from a live socket: every
    segment either end receives finds its socket, so nothing is reset."""
    run = _play(CELLS[name], state_log)
    assert (run.bed.client.packets_unmatched, run.bed.server.packets_unmatched) == (0, 0)
