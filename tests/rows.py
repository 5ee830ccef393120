"""An ``ss`` row for the tests of combiners, policies and the agent.

The agent groups the :class:`repro.tcp.socket.SocketStats` rows of a
poll by destination and hands each group to its policy and combiner,
which read three fields of a row — ``cwnd``, ``bytes_acked`` and
``srtt`` (:class:`repro.core.combiners.Observation`).  ``ss_row`` builds
an established row with those given and every other field fixed; the
agent's grouping tests also set its remote and the guard's counters.
"""

from __future__ import annotations

from repro.net.addresses import IPv4Address
from repro.tcp.socket import SocketStats, TcpState

REMOTE = IPv4Address("10.2.0.1")


def ss_row(
    cwnd: int,
    bytes_acked: int = 0,
    srtt: float | None = None,
    *,
    remote: IPv4Address = REMOTE,
    port: int = 50_000,
    sent: int = 0,
    retransmitted: int = 0,
) -> SocketStats:
    return SocketStats(
        port, remote, 8080, TcpState.ESTABLISHED, cwnd, 320.0, 10, srtt,
        bytes_acked, 0, sent, retransmitted, 0.0, 0.0, 1.0, True,
    )
