"""The inter-PoP transfer service: request/response over TCP.

Servers listen on a well-known port and answer ``("get", n)`` requests
with ``n`` bytes.  Clients manage a per-destination connection pool with
the semantics the paper's probes describe: *"If there is an existing and
idle connection ... the connection is reused, otherwise a new connection
is made."*
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from typing import Any

from repro.linux.host import Host
from repro.net.addresses import IPv4Address
from repro.tcp.socket import TcpSocket

#: Well-known port of the transfer service.
TRANSFER_PORT = 8080

#: Wire size charged for a request message.
REQUEST_BYTES = 200

#: The paper's RTT buckets for Figures 12-14 (upper bounds, seconds).
RTT_BUCKETS = (
    ("<50ms", 0.050),
    ("51-100ms", 0.100),
    ("101-150ms", 0.150),
    (">150ms", float("inf")),
)


def rtt_bucket(rtt: float) -> str:
    """The Figure 12-14 bucket label for a path RTT."""
    for label, upper in RTT_BUCKETS:
        if rtt <= upper:
            return label
    raise AssertionError("unreachable: last bucket is unbounded")


_transfer_ids = itertools.count(1)


class TransferResult:
    """Outcome of one transfer (one probe, one organic fetch)."""

    __slots__ = (
        "transfer_id", "destination", "size_bytes", "started_at", "established_at",
        "completed_at", "failed_reason", "new_connection", "initial_cwnd", "local_port",
        "cwnd_source",
        # A caller may hold a result weakly: the connection-footprint test
        # checks that a finished transfer is not kept alive by its connection.
        "__weakref__",
    )

    def __init__(
        self,
        transfer_id: int,
        destination: IPv4Address,
        size_bytes: int,
        started_at: float,
    ) -> None:
        self.transfer_id = transfer_id
        self.destination = destination
        self.size_bytes = size_bytes
        self.started_at = started_at
        self.established_at: float | None = None
        self.completed_at: float | None = None
        self.failed_reason: str | None = None
        self.new_connection = True
        self.initial_cwnd = 0
        #: Client-side ephemeral port and initcwnd provenance of the
        #: connection that carried this transfer — the join keys the
        #: attribution report uses to find the matching flow records.
        self.local_port = 0
        self.cwnd_source = "default"

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def total_time(self) -> float:
        """Wall time from request issue (incl. any handshake) to last byte."""
        if self.completed_at is None:
            raise ValueError(f"transfer #{self.transfer_id} did not complete")
        return self.completed_at - self.started_at


class TransferServer:
    """The serving side: listens and answers get-requests."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.requests_served = 0
        self.bytes_served = 0
        host.listen(TRANSFER_PORT, on_accept=self._on_accept)

    def _on_accept(self, sock: TcpSocket) -> None:
        sock.on_message = self._on_message
        sock.close_on_peer_fin = True

    def _on_message(self, sock: TcpSocket, payload: Any, size: int) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 3 and payload[0] == "get"):
            return
        _, transfer_id, response_bytes = payload
        self.requests_served += 1
        self.bytes_served += response_bytes
        sock.send_message(("data", transfer_id, response_bytes), response_bytes)

    def __repr__(self) -> str:
        return (
            f"<TransferServer {self.host.address}:{TRANSFER_PORT} "
            f"served={self.requests_served}>"
        )


class _PooledConnection:
    __slots__ = ("socket", "busy", "pending")

    def __init__(self, socket: TcpSocket) -> None:
        self.socket = socket
        self.busy = False
        self.pending: list[tuple[TransferResult, Callable | None]] = []


class TransferClient:
    """The requesting side: a connection pool plus fetch API."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self._pool: dict[IPv4Address, list[_PooledConnection]] = {}
        self._inflight: dict[int, tuple[TransferResult, Callable | None, _PooledConnection]] = {}
        self.transfers_started = 0
        self.transfers_completed = 0
        self.transfers_failed = 0
        self.connections_opened = 0
        self.connections_reused = 0
        self._metrics = host.sim.obs.metrics
        self._m_opened = self._metrics.counter("transfer_connections_opened")
        self._m_reused = self._metrics.counter("transfer_connections_reused")
        self._m_completed = self._metrics.counter("transfer_completions")
        self._m_failed = self._metrics.counter("transfer_failures")

    def fetch(
        self,
        destination: "IPv4Address | str",
        size_bytes: int,
        on_complete: Callable[[TransferResult], None] | None = None,
    ) -> TransferResult:
        """Request ``size_bytes`` from ``destination``.

        Reuses an idle pooled connection when one exists; otherwise opens
        a new one (paying the handshake RTT, and starting from whatever
        initcwnd the destination's route table prescribes for us).
        """
        destination = IPv4Address(destination)
        transfer_id = next(_transfer_ids)
        result = TransferResult(
            transfer_id=transfer_id,
            destination=destination,
            size_bytes=size_bytes,
            started_at=self.host.sim.now,
        )
        self.transfers_started += 1

        conn = self._idle_connection(destination)
        if conn is not None:
            result.new_connection = False
            result.established_at = result.started_at
            result.initial_cwnd = conn.socket.cc.initial_cwnd
            result.local_port = conn.socket.local_port
            result.cwnd_source = conn.socket.cwnd_source
            self.connections_reused += 1
            self._m_reused.inc()
            self._issue(conn, result, on_complete)
        else:
            self._open_and_issue(destination, result, on_complete)
        return result

    def close_idle_connections(
        self,
        destination: "IPv4Address | None" = None,
        probability: float = 1.0,
        rng=None,
    ) -> int:
        """Close idle pooled connections (all destinations by default).

        ``probability`` < 1 closes each idle connection independently at
        that rate (connection churn); pass an ``rng`` for reproducibility.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if probability < 1.0 and rng is None:
            raise ValueError("probabilistic close requires an rng")
        closed = 0
        targets = (
            [IPv4Address(destination)] if destination is not None else list(self._pool)
        )
        for dest in targets:
            for conn in list(self._pool.get(dest, [])):
                if not conn.busy and conn.socket.is_established:
                    if probability < 1.0 and rng.random() >= probability:
                        continue
                    conn.socket.close()
                    closed += 1
        return closed

    def pool_size(self, destination: "IPv4Address | str") -> int:
        return len(self._pool.get(IPv4Address(destination), []))

    # ------------------------------------------------------------------

    def _idle_connection(self, destination: IPv4Address) -> _PooledConnection | None:
        for conn in self._pool.get(destination, []):
            if not conn.busy and conn.socket.is_idle:
                return conn
        return None

    def _open_and_issue(
        self,
        destination: IPv4Address,
        result: TransferResult,
        on_complete: Callable[[TransferResult], None] | None,
    ) -> None:
        conn = _PooledConnection(socket=None)  # type: ignore[arg-type]
        self.connections_opened += 1
        self._m_opened.inc()

        def on_established(sock: TcpSocket) -> None:
            result.established_at = self.host.sim.now
            result.initial_cwnd = sock.cc.initial_cwnd
            result.local_port = sock.local_port
            result.cwnd_source = sock.cwnd_source
            self._issue(conn, result, on_complete)

        sock = self.host.connect(
            destination,
            TRANSFER_PORT,
            on_established=on_established,
            on_message=self._on_message,
            on_closed=self._on_closed,
            on_error=self._on_error,
        )
        conn.socket = sock
        self._pool.setdefault(destination, []).append(conn)

    def _issue(
        self,
        conn: _PooledConnection,
        result: TransferResult,
        on_complete: Callable[[TransferResult], None] | None,
    ) -> None:
        conn.busy = True
        self._inflight[result.transfer_id] = (result, on_complete, conn)
        conn.socket.send_message(
            ("get", result.transfer_id, result.size_bytes), REQUEST_BYTES
        )

    def _on_message(self, sock: TcpSocket, payload: Any, size: int) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 3 and payload[0] == "data"):
            return
        _, transfer_id, _ = payload
        entry = self._inflight.pop(transfer_id, None)
        if entry is None:
            return
        result, on_complete, conn = entry
        result.completed_at = self.host.sim.now
        conn.busy = False
        self.transfers_completed += 1
        self._m_completed.inc()
        # Completion-time histogram, bucketed by the connection's measured
        # RTT (the Figure 12-14 axis).  srtt is set by the time any
        # response has arrived.
        srtt = conn.socket.srtt
        bucket = rtt_bucket(srtt) if srtt is not None else "unknown"
        self._metrics.histogram("transfer_completion_time", bucket=bucket).observe(
            result.total_time
        )
        if on_complete is not None:
            on_complete(result)

    def _on_closed(self, sock: TcpSocket) -> None:
        self._drop_socket(sock, reason=None)

    def _on_error(self, sock: TcpSocket, reason: str) -> None:
        self._drop_socket(sock, reason=reason)

    def _drop_socket(self, sock: TcpSocket, reason: str | None) -> None:
        conns = self._pool.get(sock.remote_address, [])
        for conn in list(conns):
            if conn.socket is sock:
                conns.remove(conn)
        # Fail any transfer that was in flight on this socket.
        for transfer_id, (result, on_complete, conn) in list(self._inflight.items()):
            if conn.socket is sock:
                del self._inflight[transfer_id]
                result.failed_reason = reason or "connection closed"
                self.transfers_failed += 1
                self._m_failed.inc()
                if on_complete is not None:
                    on_complete(result)

    def __repr__(self) -> str:
        return (
            f"<TransferClient {self.host.address} started={self.transfers_started} "
            f"completed={self.transfers_completed}>"
        )
