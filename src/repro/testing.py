"""Small ready-made topologies for tests, examples and quick studies.

:class:`TwoHostTestbed` wires two hosts in two zones over one wide-area
trunk — the smallest fabric on which every TCP and Riptide behaviour can
be exercised.  :func:`request_response` runs one complete request/response
exchange and reports its timing, which is the primitive the paper's probe
measurements are built from.
"""

from __future__ import annotations

from typing import Any

from repro.linux.host import Host
from repro.net.addresses import Prefix
from repro.net.link import DuplexLink
from repro.net.loss import LossModel
from repro.net.network import Network, PathSpec
from repro.sim.kernel import Simulator
from repro.sim.rand import RandomStreams
from repro.tcp.constants import TcpConfig
from repro.tcp.socket import TcpSocket

#: The port :meth:`TwoHostTestbed.serve_echo` listens on and
#: :func:`request_response` connects to.
ECHO_PORT = 80


class TwoHostTestbed:
    """Two hosts, two zones, one configurable trunk (with
    :class:`~repro.net.network.PathSpec`'s default queue limit)."""

    CLIENT_ZONE = Prefix.parse("10.0.0.0/24")
    SERVER_ZONE = Prefix.parse("10.1.0.0/24")

    def __init__(
        self,
        rtt: float = 0.100,
        bandwidth_bps: float = 1e9,
        loss_model: LossModel | None = None,
        client_config: TcpConfig | None = None,
        server_config: TcpConfig | None = None,
        seed: int = 42,
    ) -> None:
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.network = Network(self.sim, self.streams)
        self.network.add_zone(self.CLIENT_ZONE)
        self.network.add_zone(self.SERVER_ZONE)
        spec = PathSpec(
            bandwidth_bps=bandwidth_bps,
            propagation_delay=rtt / 2.0,
            loss_model=loss_model if loss_model is not None else _no_loss(),
        )
        self.trunk: DuplexLink = self.network.connect_zones(
            self.CLIENT_ZONE, self.SERVER_ZONE, spec
        )
        self.client = Host(
            self.sim, self.network, "10.0.0.1", config=client_config, name="client"
        )
        self.server = Host(
            self.sim, self.network, "10.1.0.1", config=server_config, name="server"
        )

    def serve_echo(self) -> None:
        """Listen on the server's ``ECHO_PORT``; respond to ``("get", n)`` with ``n`` bytes."""

        def on_message(sock: TcpSocket, payload: Any, size: int) -> None:
            if isinstance(payload, tuple) and payload and payload[0] == "get":
                sock.send_message(("data", payload[1]), payload[1])

        def on_accept(sock: TcpSocket) -> None:
            sock.on_message = on_message

        self.server.listen(ECHO_PORT, on_accept=on_accept)


class ExchangeResult:
    """Timing of one request/response exchange."""

    __slots__ = ("started_at", "established_at", "completed_at", "response_bytes", "socket")

    def __init__(
        self,
        started_at: float,
        established_at: float | None,
        completed_at: float | None,
        response_bytes: int,
        socket: TcpSocket,
    ) -> None:
        self.started_at = started_at
        self.established_at = established_at
        self.completed_at = completed_at
        self.response_bytes = response_bytes
        self.socket = socket

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def total_time(self) -> float:
        """Request start (including handshake) to full response arrival."""
        if self.completed_at is None:
            raise ValueError("exchange did not complete")
        return self.completed_at - self.started_at


def request_response(
    testbed: TwoHostTestbed,
    response_bytes: int,
    request_bytes: int = 200,
    deadline: float = 60.0,
) -> ExchangeResult:
    """Open a connection, fetch ``response_bytes``, run until complete."""
    result = ExchangeResult(
        started_at=testbed.sim.now,
        established_at=None,
        completed_at=None,
        response_bytes=response_bytes,
        socket=None,  # type: ignore[arg-type] - set below
    )

    def on_established(sock: TcpSocket) -> None:
        result.established_at = testbed.sim.now
        sock.send_message(("get", response_bytes), request_bytes)

    def on_message(sock: TcpSocket, payload: Any, size: int) -> None:
        result.completed_at = testbed.sim.now

    sock = testbed.client.connect(
        testbed.server.address,
        ECHO_PORT,
        on_established=on_established,
        on_message=on_message,
    )
    result.socket = sock
    testbed.sim.run(until=testbed.sim.now + deadline)
    return result


def _no_loss() -> LossModel:
    from repro.net.loss import NoLoss

    return NoLoss()
