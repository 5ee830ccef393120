"""Unit tests for the zone/trunk fabric."""

import pytest

from repro.linux.host import Host
from repro.net.addresses import IPv4Address, Prefix
from repro.net.errors import NetworkError, NoRouteError
from repro.net.network import INTRA_ZONE_DELAY, IntraZoneHop, Network, PathSpec
from repro.net.packet import Packet
from repro.tcp.wire import Segment
from tests.datagram import Datagram


class FakeHost:
    def __init__(self, address: str) -> None:
        self.address = IPv4Address(address)
        self.received: list[Packet] = []

    def receive_packet(self, packet: Packet) -> None:
        self.received.append(packet)


ZONE_A = Prefix.parse("10.0.0.0/24")
ZONE_B = Prefix.parse("10.1.0.0/24")


@pytest.fixture
def fabric(sim, streams):
    network = Network(sim, streams)
    network.add_zone(ZONE_A)
    network.add_zone(ZONE_B)
    network.connect_zones(ZONE_A, ZONE_B, PathSpec(propagation_delay=0.025))
    return network


class TestZones:
    def test_overlapping_zone_rejected(self, sim, streams):
        network = Network(sim, streams)
        network.add_zone(Prefix.parse("10.0.0.0/16"))
        with pytest.raises(NetworkError):
            network.add_zone(Prefix.parse("10.0.5.0/24"))
        with pytest.raises(NetworkError):
            network.add_zone(Prefix.parse("10.0.0.0/8"))

    def test_zone_of_resolves_membership(self, fabric):
        assert fabric.zone_of(IPv4Address("10.0.0.9")) == ZONE_A
        assert fabric.zone_of(IPv4Address("10.1.0.9")) == ZONE_B
        assert fabric.zone_of(IPv4Address("192.168.0.1")) is None

    def test_connect_requires_registered_zones(self, sim, streams):
        network = Network(sim, streams)
        network.add_zone(ZONE_A)
        with pytest.raises(NetworkError):
            network.connect_zones(ZONE_A, ZONE_B, PathSpec())

    def test_connect_zone_to_itself_rejected(self, fabric):
        with pytest.raises(NetworkError):
            fabric.connect_zones(ZONE_A, ZONE_A, PathSpec())

    def test_double_connect_rejected(self, fabric):
        with pytest.raises(NetworkError):
            fabric.connect_zones(ZONE_B, ZONE_A, PathSpec())

    def test_trunk_between_is_symmetric(self, fabric):
        assert fabric.trunk_between(ZONE_A, ZONE_B) is fabric.trunk_between(
            ZONE_B, ZONE_A
        )


class TestDelivery:
    def test_inter_zone_delivery(self, sim, fabric):
        a = FakeHost("10.0.0.1")
        b = FakeHost("10.1.0.1")
        fabric.attach(a)
        fabric.attach(b)
        fabric.send(Datagram(a.address, b.address, 100))
        sim.run()
        assert len(b.received) == 1
        assert sim.now >= 0.025

    def test_reverse_direction_uses_reverse_link(self, sim, fabric):
        a = FakeHost("10.0.0.1")
        b = FakeHost("10.1.0.1")
        fabric.attach(a)
        fabric.attach(b)
        fabric.send(Datagram(b.address, a.address, 100))
        sim.run()
        assert len(a.received) == 1

    def test_intra_zone_delivery_is_fast(self, sim, fabric):
        a1 = FakeHost("10.0.0.1")
        a2 = FakeHost("10.0.0.2")
        fabric.attach(a1)
        fabric.attach(a2)
        fabric.send(Datagram(a1.address, a2.address, 100))
        sim.run()
        assert len(a2.received) == 1
        assert sim.now < 0.001

    def test_unknown_zone_raises(self, sim, fabric):
        a = FakeHost("10.0.0.1")
        fabric.attach(a)
        with pytest.raises(NoRouteError):
            fabric.send(Datagram(a.address, IPv4Address("192.168.0.1"), 100))

    def test_unconnected_zones_raise(self, sim, streams):
        network = Network(sim, streams)
        network.add_zone(ZONE_A)
        network.add_zone(ZONE_B)
        a = FakeHost("10.0.0.1")
        network.attach(a)
        with pytest.raises(NoRouteError):
            network.send(Datagram(a.address, IPv4Address("10.1.0.1"), 100))

    def test_packet_to_missing_host_counted(self, sim, fabric):
        a = FakeHost("10.0.0.1")
        fabric.attach(a)
        fabric.send(Datagram(a.address, IPv4Address("10.1.0.200"), 100))
        sim.run()
        assert fabric.packets_to_unknown_host == 1


class TestAttachment:
    def test_duplicate_address_rejected(self, fabric):
        fabric.attach(FakeHost("10.0.0.1"))
        with pytest.raises(NetworkError):
            fabric.attach(FakeHost("10.0.0.1"))


ZONE_C = Prefix.parse("10.2.0.0/24")


class TestPathMemo:
    """``Network.send`` resolves every call afresh and follows the fabric."""

    def test_trunk_added_after_traffic_is_used_by_next_send(self, sim, fabric):
        a = FakeHost("10.0.0.1")
        b = FakeHost("10.1.0.1")
        c = FakeHost("10.2.0.1")
        for host in (a, b, c):
            fabric.attach(host)
        fabric.send(Datagram(a.address, b.address, 100))
        with pytest.raises(NoRouteError, match="no zone for 10.2.0.1"):
            fabric.send(Datagram(a.address, c.address, 100))
        fabric.add_zone(ZONE_C)
        with pytest.raises(NoRouteError, match="no trunk from zone 10.0.0.0/24"):
            fabric.send(Datagram(a.address, c.address, 100))
        fabric.connect_zones(ZONE_A, ZONE_C, PathSpec(propagation_delay=0.010))
        fabric.send(Datagram(a.address, c.address, 100))
        fabric.send(Datagram(c.address, a.address, 100))
        sim.run()
        assert (len(a.received), len(b.received), len(c.received)) == (1, 1, 1)

    def test_unroutable_sends_raise_every_time(self, sim, streams):
        network = Network(sim, streams)
        network.add_zone(ZONE_A)
        network.add_zone(ZONE_B)
        a = FakeHost("10.0.0.1")
        network.attach(a)
        for _ in range(3):
            with pytest.raises(NoRouteError, match="no zone for 192.168.0.1"):
                network.send(Datagram(a.address, IPv4Address("192.168.0.1"), 100))
            with pytest.raises(NoRouteError, match="no zone for 192.168.0.1"):
                network.send(Datagram(IPv4Address("192.168.0.1"), a.address, 100))
            with pytest.raises(NoRouteError, match="no trunk from zone"):
                network.send(Datagram(a.address, IPv4Address("10.1.0.1"), 100))
        assert sim.pending_events == 0

    def test_link_state_is_read_from_the_link_not_the_memo(self, sim, fabric):
        a = FakeHost("10.0.0.1")
        b = FakeHost("10.1.0.1")
        fabric.attach(a)
        fabric.attach(b)
        fabric.send(Datagram(a.address, b.address, 100))
        sim.run()
        trunk = fabric.trunk_between(ZONE_A, ZONE_B)
        trunk.set_down()
        fabric.send(Datagram(a.address, b.address, 100))
        sim.run()
        assert trunk.forward.stats.packets_dropped_down == 1
        trunk.set_up()
        fabric.send(Datagram(a.address, b.address, 100))
        sim.run()
        assert len(b.received) == 2


def _segment(src: Host, dst: IPv4Address) -> Segment:
    return Segment(src.address, dst, 40000, 80, 0, 0, rst=True)


class Arrivals:
    """A bare host that notes when each packet reaches it."""

    def __init__(self, sim, address: str) -> None:
        self.sim = sim
        self.address = IPv4Address(address)
        self.arrived: list[tuple[Packet, float]] = []

    def receive_packet(self, packet: Packet) -> None:
        self.arrived.append((packet, self.sim.now))


class TestHostHops:
    """A host keeps, per destination, the hop and the receiver
    ``Network.send`` resolved."""

    def test_intra_zone_hop_arrives_one_lan_delay_later(self, sim, fabric):
        sender = Host(sim, fabric, "10.0.0.1")
        sink = Arrivals(sim, "10.0.0.2")
        fabric.attach(sink)
        sim.run(until=0.3)
        first = _segment(sender, sink.address)
        sender.send_packet(first)
        hop, receiver = sender._hops[sink.address.value]
        assert isinstance(hop, IntraZoneHop)
        assert receiver == sink.receive_packet
        sim.run(until=0.7)
        second = _segment(sender, sink.address)
        sender.send_packet(second)  # on the remembered hop
        sim.run()
        assert sink.arrived == [
            (first, 0.3 + INTRA_ZONE_DELAY),
            (second, 0.7 + INTRA_ZONE_DELAY),
        ]

    def test_trunk_hop_is_the_directions_link(self, sim, fabric):
        sender = Host(sim, fabric, "10.0.0.1")
        sink = Arrivals(sim, "10.1.0.1")
        fabric.attach(sink)
        for _ in range(3):
            sender.send_packet(_segment(sender, sink.address))
        sim.run()
        forward = fabric.link_from(ZONE_A, ZONE_B)
        assert sender._hops == {sink.address.value: (forward, sink.receive_packet)}
        assert forward.stats.packets_delivered == len(sink.arrived) == 3

    def test_unroutable_send_is_not_remembered(self, sim, streams):
        network = Network(sim, streams)
        network.add_zone(ZONE_A)
        network.add_zone(ZONE_B)
        sender = Host(sim, network, "10.0.0.1")
        sink = Arrivals(sim, "10.1.0.1")
        network.attach(sink)
        for _ in range(2):
            with pytest.raises(NoRouteError, match="no trunk from zone"):
                sender.send_packet(_segment(sender, sink.address))
            assert sender._hops == {}
        network.connect_zones(ZONE_A, ZONE_B, PathSpec(propagation_delay=0.010))
        sender.send_packet(_segment(sender, sink.address))
        sim.run()
        assert len(sink.arrived) == 1
        assert sender._hops == {
            sink.address.value: (network.link_from(ZONE_A, ZONE_B), sink.receive_packet)
        }

    @pytest.mark.parametrize("address", ["10.0.0.2", "10.1.0.1"], ids=["intra", "trunk"])
    def test_arrivals_bypass_the_fabric(self, sim, fabric, address):
        """Both kinds of hop hand an arrival straight to the receiving host."""
        sender = Host(sim, fabric, "10.0.0.1")
        sink = Arrivals(sim, address)
        fabric.attach(sink)
        looked_up = []
        fabric.deliver = looked_up.append
        for _ in range(3):
            sender.send_packet(_segment(sender, sink.address))
        sim.run()
        assert len(sink.arrived) == 3
        assert looked_up == []

    def test_host_attached_after_the_first_packet_receives_later_ones(self, sim, fabric):
        sender = Host(sim, fabric, "10.0.0.1")
        address = IPv4Address("10.1.0.7")
        sender.send_packet(_segment(sender, address))
        sim.run()
        assert sender._hops[address.value][1] == fabric.deliver
        sink = Arrivals(sim, str(address))
        fabric.attach(sink)
        second = _segment(sender, address)
        sender.send_packet(second)  # on the remembered pair
        sim.run()
        assert [packet for packet, _ in sink.arrived] == [second]
        assert fabric.packets_to_unknown_host == 1

    def test_packets_to_an_unattached_address_are_counted(self, sim, fabric):
        sender = Host(sim, fabric, "10.0.0.1")
        for address in ("10.0.0.9", "10.1.0.9"):
            for _ in range(2):
                sender.send_packet(_segment(sender, IPv4Address(address)))
        sim.run()
        assert fabric.packets_to_unknown_host == 4

    def test_rebooted_host_keeps_receiving(self, sim, fabric):
        sender = Host(sim, fabric, "10.0.0.1")
        receiver = Host(sim, fabric, "10.1.0.1")
        sender.send_packet(_segment(sender, receiver.address))
        sim.run()
        receiver.reboot()
        sender.send_packet(_segment(sender, receiver.address))
        sim.run()
        assert receiver.packets_received == 2
        assert fabric.packets_to_unknown_host == 0

    def test_tap_installed_after_the_first_packet_is_not_seen(self, sim, fabric, monkeypatch):
        """The pinned contract: a tap on ``receive_packet`` must be in place
        before the first packet to the host; later, the memo bypasses it."""
        sender = Host(sim, fabric, "10.0.0.1")
        receiver = Host(sim, fabric, "10.1.0.1")
        sender.send_packet(_segment(sender, receiver.address))
        sim.run()
        tapped = []
        receiver.receive_packet = tapped.append
        monkeypatch.setattr(Host, "receive_packet", lambda host, packet: tapped.append(packet))
        sender.send_packet(_segment(sender, receiver.address))
        sim.run()
        assert tapped == []
        assert receiver.packets_received == 2
