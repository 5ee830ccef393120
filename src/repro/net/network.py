"""The fabric: zones, inter-zone trunks and packet delivery.

The reproduction models the CDN the way the paper describes it: every PoP
owns an address prefix ("zone"), and each ordered pair of PoPs communicates
over a shared wide-area trunk (a :class:`~repro.net.link.DuplexLink`).  All
connections between two PoPs therefore share one bottleneck, which is what
makes the congestion windows of *existing* connections informative about
the path — the observation Riptide exploits.

Hosts attach by address.  ``send`` resolves ``(src, dst)`` to the trunk
between their zones (intra-zone traffic takes a fast local path) and the
trunk delivers to the destination host's ``receive_packet``.

The resolution is remembered per address pair, keyed (like the host
table) by address *integers* so per-packet lookups hash in C.  The memo
only points at a :class:`~repro.net.link.Link`: what faults change is
read from the link at each packet's own time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.net.addresses import IPv4Address, Prefix
from repro.net.errors import NetworkError, NoRouteError
from repro.net.link import DuplexLink, Link
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
        #: ``(src, dst)`` address integers -> the link that carries the
        #: pair, or None for an intra-zone hop.  Only successful
        #: resolutions are kept; dropped whenever zones or trunks change.
        self._paths: dict[tuple[int, int], Link | None] = {}
        self.packets_to_unknown_host = 0

    @property
    def sim(self) -> Simulator:
        return self._sim

    def add_zone(self, prefix: Prefix) -> None:
        """Register an address zone (a PoP's prefix)."""
        for existing in self._zones:
            if existing.contains_prefix(prefix) or prefix.contains_prefix(existing):
                raise NetworkError(f"zone {prefix} overlaps existing zone {existing}")
        self._zones[prefix] = None
        self._zone_cache.clear()
        self._paths.clear()

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
        self._paths.clear()
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

    def send(self, packet: Packet) -> None:
        """Inject a packet; it is delivered (or dropped) asynchronously."""
        key = (packet.src.value, packet.dst.value)
        try:
            trunk = self._paths[key]
        except KeyError:
            # Raises for an unroutable pair, so a failure is never memoised.
            trunk = self._paths[key] = self._resolve(packet.src, packet.dst)
        if trunk is None:
            self._sim.schedule_fire(self._sim.now + INTRA_ZONE_DELAY, self._deliver_local, packet)
        else:
            trunk.transmit(packet, self._deliver_local)

    def _resolve(self, src: IPv4Address, dst: IPv4Address) -> Link | None:
        """The link carrying ``src`` → ``dst``; None within one zone."""
        src_zone = self.zone_of(src)
        dst_zone = self.zone_of(dst)
        if src_zone is None or dst_zone is None:
            raise NoRouteError(f"no zone for {src if src_zone is None else dst}")
        if src_zone == dst_zone:
            return None
        trunk = self._trunks.get((src_zone, dst_zone))
        if trunk is None:
            raise NoRouteError(f"no trunk from zone {src_zone} to zone {dst_zone}")
        return trunk

    def _deliver_local(self, packet: Packet) -> None:
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
