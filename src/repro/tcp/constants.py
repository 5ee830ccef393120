"""TCP constants and per-host configuration.

Defaults mirror the Linux stack the paper runs on: MSS of 1460 bytes
(1500-byte packets), initial congestion window of 10 segments
(``TCP_INIT_CWND`` since kernel 2.6.39, the value the paper's Section II-B
model assumes), 200 ms minimum RTO, and CUBIC congestion control.
"""

from __future__ import annotations

from dataclasses import dataclass

#: TCP/IP header overhead charged per packet on the wire.
TCP_HEADER_BYTES = 40

#: Linux default MSS for 1500-byte MTU paths.
DEFAULT_MSS = 1460

#: Linux default initial congestion window (segments) — RFC 6928 / [4].
DEFAULT_INIT_CWND = 10

#: Linux default initial advertised receive window, in segments.
DEFAULT_INIT_RWND = 20

#: Linux TCP_RTO_MIN.
MIN_RTO = 0.200

#: Linux TCP_RTO_MAX.
MAX_RTO = 120.0

#: Initial RTO before any RTT sample (RFC 6298 says 1 s).
INITIAL_RTO = 1.0

#: Duplicate-ACK threshold for fast retransmit.
DUPACK_THRESHOLD = 3

#: Delayed-ACK timer (Linux quickack territory is 40 ms).
DELAYED_ACK_TIMEOUT = 0.040


@dataclass(frozen=True, eq=False)
class TcpConfig:
    """Host-wide TCP tunables (the simulated sysctl surface).

    A new connection starts at :data:`DEFAULT_INIT_CWND` unless a route
    overrides it — Riptide's whole job is to install per-destination route
    overrides on top of that default.  ``default_initrwnd`` is the
    receive-side counterpart that Section III-C requires to be raised to
    at least ``c_max``.  Retransmission timeouts use :data:`MIN_RTO`,
    :data:`MAX_RTO` and :data:`INITIAL_RTO`.
    """

    mss: int = DEFAULT_MSS
    default_initrwnd: int = DEFAULT_INIT_RWND
    rmem_max_bytes: int = 6 * 1024 * 1024
    congestion_control: str = "cubic"
    delayed_ack: bool = False
    #: RFC 2861 / Linux tcp_slow_start_after_idle: a connection idle for
    #: longer than its RTO restarts from the *initial* window — which the
    #: kernel resolves through the route table, so a Riptide-learned
    #: initcwnd also governs restarts of reused connections.
    slow_start_after_idle: bool = True
    #: RFC 2018 selective acknowledgements.  Off by default in this
    #: reproduction (the calibrated experiments use NewReno recovery);
    #: enable to recover multi-loss windows without RTOs.
    sack: bool = False

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ValueError(f"mss must be positive, got {self.mss}")
        if self.default_initrwnd < 1:
            raise ValueError(
                f"default_initrwnd must be >= 1, got {self.default_initrwnd}"
            )
        if self.rmem_max_bytes < self.mss:
            raise ValueError("rmem_max_bytes must hold at least one segment")
