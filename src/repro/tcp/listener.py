"""Passive opens: the listening socket.

A :class:`TcpListener` owns a port on a host.  Each incoming SYN creates a
fresh server-side :class:`~repro.tcp.socket.TcpSocket` whose initial
congestion window comes from the *host's route table* — so when Riptide on
a CDN server installs a learned ``initcwnd`` toward a peer PoP, responses
served from this listener start at that learned window.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.tcp.errors import TcpError
from repro.tcp.wire import Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.linux.host import Host
    from repro.tcp.socket import TcpSocket

AcceptCallback = Callable[["TcpSocket"], None]


class TcpListener:
    """Accepts connections on one local port."""

    def __init__(
        self,
        host: "Host",
        port: int,
        on_accept: AcceptCallback | None = None,
    ) -> None:
        self._host = host
        self.port = port
        self.on_accept = on_accept
        self.connections_accepted = 0

    def handle_syn(self, segment: Segment) -> "TcpSocket":
        """Create and register the server-side socket for a new SYN."""
        if not segment.syn or segment.is_ack:
            raise TcpError("listener can only handle bare SYN segments")
        sock = self._host.create_server_socket(
            local_port=self.port,
            remote_address=segment.src,
            remote_port=segment.src_port,
        )
        self.connections_accepted += 1
        if self.on_accept is not None:
            self.on_accept(sock)
        sock.accept_syn(segment)
        return sock

    def __repr__(self) -> str:
        return f"<TcpListener {self._host.address}:{self.port}>"
