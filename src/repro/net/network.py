"""The fabric: zones, inter-zone trunks and packet delivery.

The reproduction models the CDN the way the paper describes it: every PoP
owns an address prefix ("zone"), and each ordered pair of PoPs communicates
over a shared wide-area trunk (a :class:`~repro.net.link.DuplexLink`).  All
connections between two PoPs therefore share one bottleneck, which is what
makes the congestion windows of *existing* connections informative about
the path — the observation Riptide exploits.

Hosts attach by address.  ``send`` resolves ``(src, dst)`` to the hop
that carries the pair — the trunk :class:`~repro.net.link.Link` between
their zones, or the fast intra-zone hop — and to the receiver its
packets arrive at: the ``receive_packet`` of the host attached at ``dst``,
or :meth:`Network.deliver` while none is.  It puts the packet on the hop
and returns both.

``send`` is the only resolver and keeps no memo: a host keeps the pair
per destination (:meth:`repro.linux.host.Host.send_packet`), so only a
host's first packet to each destination comes through here.  A resolved
pair cannot go stale: zones cannot overlap, a trunk cannot be replaced
and an attached host is never detached (a reboot keeps the object).  A
host attached at ``dst`` after the pair was resolved is found by
``deliver``, per packet.  What faults change is read from the link at
each packet's own time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.net.addresses import IPv4Address, Prefix
from repro.net.errors import NetworkError, NoRouteError
from repro.net.link import DeliverCallback, DuplexLink, Link
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.rand import RandomStreams


class AttachedHost(Protocol):
    """What the fabric requires of a host."""

    address: IPv4Address

    def receive_packet(self, packet: Packet) -> None: ...


@dataclass(frozen=True, eq=False)
class PathSpec:
    """Parameters of one inter-zone trunk.

    ``propagation_delay`` is one-way; the resulting base RTT is twice this.
    """

    bandwidth_bps: float = 1e9
    propagation_delay: float = 0.040
    queue_limit_packets: int = 1024
    loss_model: LossModel = field(default_factory=NoLoss)


#: Delay for traffic between hosts of the same zone (LAN hop).
INTRA_ZONE_DELAY = 0.00025


class IntraZoneHop:
    """The hop between two hosts of one zone: a fixed LAN delay, no queue
    and no loss.  Its ``transmit`` has :class:`Link`'s signature, so a host
    puts a packet on either alike; the arrival event is the receiver's own
    call."""

    __slots__ = ("_sim",)

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim

    def transmit(self, packet: Packet, deliver: DeliverCallback) -> bool:
        sim = self._sim
        sim.schedule_fire(sim.now + INTRA_ZONE_DELAY, deliver, packet)
        return True


#: What carries one (source, destination) pair's packets.
Hop = Link | IntraZoneHop


class Network:
    """Zones, trunks and hosts wired together over one simulator."""

    def __init__(self, sim: Simulator, streams: RandomStreams | None = None) -> None:
        self._sim = sim
        self._streams = streams if streams is not None else RandomStreams(0)
        #: Registered zones in registration order (a dict, for membership).
        self._zones: dict[Prefix, None] = {}
        self._trunks: dict[tuple[Prefix, Prefix], Link] = {}
        self._duplexes: dict[frozenset[Prefix], DuplexLink] = {}
        #: Attached hosts by address integer.
        self._hosts: dict[int, AttachedHost] = {}
        self._zone_cache: dict[IPv4Address, Prefix | None] = {}
        self._intra_zone = IntraZoneHop(sim)
        self.packets_to_unknown_host = 0

    def add_zone(self, prefix: Prefix) -> None:
        """Register an address zone (a PoP's prefix)."""
        for existing in self._zones:
            if existing.contains_prefix(prefix) or prefix.contains_prefix(existing):
                raise NetworkError(f"zone {prefix} overlaps existing zone {existing}")
        self._zones[prefix] = None
        self._zone_cache.clear()

    def connect_zones(
        self,
        zone_a: Prefix,
        zone_b: Prefix,
        spec: PathSpec,
    ) -> DuplexLink:
        """Create the wide-area trunk between two registered zones."""
        if zone_a not in self._zones or zone_b not in self._zones:
            raise NetworkError("both zones must be registered before connecting")
        if zone_a == zone_b:
            raise NetworkError("cannot connect a zone to itself")
        key = frozenset((zone_a, zone_b))
        if key in self._duplexes:
            raise NetworkError(f"zones {zone_a} and {zone_b} are already connected")
        name = f"{zone_a}<->{zone_b}"
        duplex = DuplexLink(
            self._sim,
            spec.bandwidth_bps,
            spec.propagation_delay,
            spec.queue_limit_packets,
            spec.loss_model,
            name=name,
            streams=self._streams,
        )
        self._duplexes[key] = duplex
        self._trunks[(zone_a, zone_b)] = duplex.forward
        self._trunks[(zone_b, zone_a)] = duplex.reverse
        return duplex

    def trunk_between(self, zone_a: Prefix, zone_b: Prefix) -> DuplexLink | None:
        """The duplex trunk between two zones, if one exists."""
        return self._duplexes.get(frozenset((zone_a, zone_b)))

    def link_from(self, src_zone: Prefix, dst_zone: Prefix) -> Link | None:
        """The unidirectional link carrying ``src_zone`` → ``dst_zone``.

        Fluid cohorts apply their bandwidth pressure and read loss/RTT
        from the directional link their data actually crosses.
        """
        return self._trunks.get((src_zone, dst_zone))

    def trunks_touching(self, zone: Prefix) -> list[DuplexLink]:
        """All trunks with ``zone`` as one endpoint (partition surface).

        Ordered by the trunk's name so fault injection walks them in a
        deterministic order regardless of dict insertion history.
        """
        touching = [
            duplex for key, duplex in self._duplexes.items() if zone in key
        ]
        touching.sort(key=lambda duplex: duplex.name)
        return touching

    def attach(self, host: AttachedHost) -> None:
        """Attach a host; its address must be unique on the fabric."""
        if host.address.value in self._hosts:
            raise NetworkError(f"address {host.address} already attached")
        self._hosts[host.address.value] = host

    def zone_of(self, address: IPv4Address) -> Prefix | None:
        """The zone containing ``address`` (cached per address)."""
        if address in self._zone_cache:
            return self._zone_cache[address]
        found = None
        for zone in self._zones:
            if zone.contains(address):
                found = zone
                break
        self._zone_cache[address] = found
        return found

    def send(self, packet: Packet) -> tuple[Hop, DeliverCallback]:
        """Resolve the packet's path and receiver, put the packet on the
        path and return both.

        The pair carries every later packet of the same ``(src, dst)``
        too.  An unroutable pair raises :class:`NoRouteError` before
        anything is sent, so a failure leaves nothing to remember.
        """
        hop = self._resolve(packet.src, packet.dst)
        host = self._hosts.get(packet.dst.value)
        receiver = self.deliver if host is None else host.receive_packet
        hop.transmit(packet, receiver)
        return hop, receiver

    def _resolve(self, src: IPv4Address, dst: IPv4Address) -> Hop:
        """The hop carrying ``src`` → ``dst``."""
        src_zone = self.zone_of(src)
        dst_zone = self.zone_of(dst)
        if src_zone is None or dst_zone is None:
            raise NoRouteError(f"no zone for {src if src_zone is None else dst}")
        if src_zone == dst_zone:
            return self._intra_zone
        trunk = self._trunks.get((src_zone, dst_zone))
        if trunk is None:
            raise NoRouteError(f"no trunk from zone {src_zone} to zone {dst_zone}")
        return trunk

    def deliver(self, packet: Packet) -> None:
        """Hand an arrived packet to the host at its destination address:
        the receiver of a pair resolved while no host was attached there."""
        host = self._hosts.get(packet.dst.value)
        if host is None:
            self.packets_to_unknown_host += 1
            return
        host.receive_packet(packet)

    def __repr__(self) -> str:
        return (
            f"<Network zones={len(self._zones)} trunks={len(self._duplexes)} "
            f"hosts={len(self._hosts)}>"
        )
