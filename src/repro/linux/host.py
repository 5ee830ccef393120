"""The simulated server: sockets, listeners, route table, tools.

A :class:`Host` is one machine in one PoP.  It owns

* the route table that Riptide manipulates (``host.ip``),
* the socket statistics view that Riptide polls (``host.ss``),
* the TCP configuration (MSS, default initcwnd/initrwnd, congestion
  control), and
* the live sockets and listeners, with demultiplexing of incoming packets.

The two methods that close the loop for the paper are
:meth:`initcwnd_for` and :meth:`initrwnd_for`: every new connection —
active or passive — resolves its initial windows through the route table
at establishment time, exactly as the Linux kernel does.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable

#: Signature of an in-kernel initial-window hook (see Host.initcwnd_hook).
InitcwndHook = Callable[["IPv4Address"], "int | None"]

from repro.linux.ip_tool import IpRouteTool
from repro.linux.route import RouteTable
from repro.linux.ss_tool import SsTool, SyntheticSocketSource
from repro.net.addresses import IPv4Address
from repro.net.link import DeliverCallback
from repro.net.network import Hop, Network
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.tcp.constants import DEFAULT_INIT_CWND, TcpConfig
from repro.tcp.errors import TcpError
from repro.tcp.listener import AcceptCallback, TcpListener
from repro.tcp.socket import TcpSocket
from repro.tcp.wire import Segment

_EPHEMERAL_PORT_START = 32768

#: Socket demux key: ``(local_port, remote address integer, remote_port)``
#: — all plain ints, so the per-packet lookup hashes and compares in C.
ConnKey = tuple[int, int, int]


class Host:
    """One simulated Linux server attached to the fabric."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: "IPv4Address | str",
        config: TcpConfig | None = None,
        name: str | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.address = IPv4Address(address)
        self.config = config if config is not None else TcpConfig()
        self.name = name if name is not None else str(self.address)
        self.route_table = RouteTable()
        self.ip = IpRouteTool(self)
        self.ss = SsTool(self)
        self._sockets: dict[ConnKey, TcpSocket] = {}
        self._listeners: dict[int, TcpListener] = {}
        self._ephemeral_ports = itertools.count(_EPHEMERAL_PORT_START)
        #: Destination address integer -> the hop that carries this host's
        #: packets there and the receiver they arrive at, as
        #: ``Network.send`` resolved them for the first.
        self._hops: dict[int, tuple[Hop, DeliverCallback]] = {}
        #: Optional in-kernel initial-window resolver, consulted before
        #: the route table (the Section V "Kernel Implementation" path).
        #: Returning None falls through to the normal FIB lookup.
        self.initcwnd_hook: InitcwndHook | None = None
        #: Mean-field cohorts whose synthesized snapshots appear in
        #: ``ss`` polls alongside the real sockets (repro.cdn hybrid
        #: mode).  Fabric-level state: a reboot does not clear it — the
        #: background population exists independently of this box.
        self.fluid_sources: list[SyntheticSocketSource] = []
        self.packets_received = 0
        self.packets_unmatched = 0
        self.reboots = 0
        network.attach(self)

    # ------------------------------------------------------------------
    # initial-window resolution (the Riptide hook point)
    # ------------------------------------------------------------------

    def initcwnd_for(self, destination: IPv4Address) -> int:
        """Initial congestion window for a new connection to ``destination``.

        An installed kernel hook wins, then longest-prefix match in the
        route table, then the host default (10 segments on stock Linux).
        """
        return self.initcwnd_with_source(destination)[0]

    def initcwnd_with_source(self, destination: IPv4Address) -> tuple[int, str]:
        """Resolve the initial window plus where it came from.

        The source tag (``"hook"``, ``"route"`` or ``"default"``) lands
        on the flow record; the attribution report uses it to tell a
        Riptide-jump-started connection from one that fell back to the
        sysctl default because no route was learned yet.
        """
        if self.initcwnd_hook is not None:
            value = self.initcwnd_hook(destination)
            if value is not None:
                return value, "hook"
        route = self.route_table.lookup(destination)
        if route is not None and route.initcwnd is not None:
            return route.initcwnd, "route"
        return DEFAULT_INIT_CWND, "default"

    def initrwnd_for(self, destination: IPv4Address) -> int:
        """Initial receive window (segments) advertised to ``destination``."""
        route = self.route_table.lookup(destination)
        if route is not None and route.initrwnd is not None:
            return route.initrwnd
        return self.config.default_initrwnd

    # ------------------------------------------------------------------
    # socket lifecycle
    # ------------------------------------------------------------------

    def connect(
        self,
        remote_address: "IPv4Address | str",
        remote_port: int,
        on_established: Callable[[TcpSocket], None] | None = None,
        on_message: Callable[[TcpSocket, object, int], None] | None = None,
        on_closed: Callable[[TcpSocket], None] | None = None,
        on_error: Callable[[TcpSocket, str], None] | None = None,
    ) -> TcpSocket:
        """Actively open a connection and return the client socket."""
        remote = IPv4Address(remote_address)
        sock = self._open_socket(next(self._ephemeral_ports), remote, remote_port)
        sock.on_established = on_established
        sock.on_message = on_message
        sock.on_closed = on_closed
        sock.on_error = on_error
        sock.connect()
        return sock

    def create_server_socket(
        self,
        local_port: int,
        remote_address: IPv4Address,
        remote_port: int,
    ) -> TcpSocket:
        """Build and register the passive-side socket (listener path)."""
        return self._open_socket(local_port, remote_address, remote_port)

    def listen(self, port: int, on_accept: AcceptCallback | None = None) -> TcpListener:
        """Open a listening port."""
        if port in self._listeners:
            raise TcpError(f"port {port} is already listening on {self.address}")
        listener = TcpListener(self, port, on_accept)
        self._listeners[port] = listener
        return listener

    def sockets(self) -> Iterable[TcpSocket]:
        """All live (registered) sockets."""
        return list(self._sockets.values())

    def socket_closed(self, sock: TcpSocket) -> None:
        """Called by sockets on teardown to deregister themselves."""
        key = (sock.local_port, sock.remote_address.value, sock.remote_port)
        registered = self._sockets.get(key)
        if registered is sock:
            del self._sockets[key]

    def _open_socket(self, local_port: int, remote: IPv4Address, remote_port: int) -> TcpSocket:
        """Build a socket with the route's initial windows and register it."""
        initial_cwnd, cwnd_source = self.initcwnd_with_source(remote)
        sock = TcpSocket(
            self, local_port, remote, remote_port, self.config,
            initial_cwnd, self.initrwnd_for(remote), cwnd_source,
        )
        key = (local_port, remote.value, remote_port)
        if key in self._sockets:
            raise TcpError(f"socket collision on {local_port} <- {remote}:{remote_port}")
        self._sockets[key] = sock
        return sock

    def reboot(self) -> None:
        """Simulate a reboot (Section II-A's motivating failure case).

        All sockets vanish without so much as a FIN (a peer that sends is
        reset; one that only waits finds out through its own timers), the
        route table — including every Riptide-installed entry — is wiped,
        and any kernel hook is gone.
        Listeners persist: services restart with the machine.  Everything
        Riptide had learned, locally *and about this node on remote
        machines*, must be re-learned.
        """
        self.reboots += 1
        for sock in list(self._sockets.values()):
            sock.vanish()
        self._sockets.clear()
        self.route_table = RouteTable()
        self.initcwnd_hook = None

    # ------------------------------------------------------------------
    # packet I/O
    # ------------------------------------------------------------------

    def send_packet(self, packet: Packet) -> None:
        """Put a packet on the hop to its destination.

        Keyed by destination alone: every packet a host sends carries its
        own address.  The first packet to a destination goes through
        ``Network.send``, which resolves the path and the receiver and
        returns both; an unroutable destination raises there and is never
        remembered.
        """
        try:
            hop, receiver = self._hops[packet.dst.value]
        except KeyError:
            self._hops[packet.dst.value] = self.network.send(packet)
            return
        hop.transmit(packet, receiver)

    def receive_packet(self, packet: Packet) -> None:
        """Demultiplex an incoming packet to a socket or listener.

        A sender's first packet here binds this method into the sender's
        hop memo (:meth:`send_packet`), and every later packet of the pair
        arrives through that bound method.  A tap replacing it on the
        instance or the class must therefore be in place before the first
        packet to this host; one installed later never sees that pair.
        """
        self.packets_received += 1
        if not isinstance(packet, Segment):
            self.packets_unmatched += 1
            return
        sock = self._sockets.get((packet.dst_port, packet.src.value, packet.src_port))
        if sock is not None:
            sock.handle_segment(packet)
            return
        if packet.syn and not packet.is_ack:
            listener = self._listeners.get(packet.dst_port)
            if listener is not None:
                listener.handle_syn(packet)
                return
        self.packets_unmatched += 1
        if not packet.rst:
            self._reset(packet)

    def _reset(self, segment: Segment) -> None:
        """RFC 793's answer to a segment no socket takes: a RST at the
        sequence number it acknowledged, or, when it carries no ACK, a
        RST|ACK of everything it occupied.  A RST is never answered."""
        if segment.is_ack:
            reply = Segment(
                self.address, segment.src, segment.dst_port, segment.src_port,
                segment.ack, 0, rst=True,
            )
        else:
            reply = Segment(
                self.address, segment.src, segment.dst_port, segment.src_port,
                0, segment.end_seq, rst=True, is_ack=True,
            )
        self.send_packet(reply)

    def __repr__(self) -> str:
        return (
            f"<Host {self.name!r} {self.address} sockets={len(self._sockets)} "
            f"listeners={sorted(self._listeners)}>"
        )
