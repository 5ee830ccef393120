"""Unit tests for the zone/trunk fabric."""

import pytest

from repro.net.addresses import IPv4Address, Prefix
from repro.net.errors import NetworkError, NoRouteError
from repro.net.network import Network, PathSpec
from repro.net.packet import Packet


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
        fabric.send(Packet(a.address, b.address, 100))
        sim.run()
        assert len(b.received) == 1
        assert sim.now >= 0.025

    def test_reverse_direction_uses_reverse_link(self, sim, fabric):
        a = FakeHost("10.0.0.1")
        b = FakeHost("10.1.0.1")
        fabric.attach(a)
        fabric.attach(b)
        fabric.send(Packet(b.address, a.address, 100))
        sim.run()
        assert len(a.received) == 1

    def test_intra_zone_delivery_is_fast(self, sim, fabric):
        a1 = FakeHost("10.0.0.1")
        a2 = FakeHost("10.0.0.2")
        fabric.attach(a1)
        fabric.attach(a2)
        fabric.send(Packet(a1.address, a2.address, 100))
        sim.run()
        assert len(a2.received) == 1
        assert sim.now < 0.001

    def test_unknown_zone_raises(self, sim, fabric):
        a = FakeHost("10.0.0.1")
        fabric.attach(a)
        with pytest.raises(NoRouteError):
            fabric.send(Packet(a.address, IPv4Address("192.168.0.1"), 100))

    def test_unconnected_zones_raise(self, sim, streams):
        network = Network(sim, streams)
        network.add_zone(ZONE_A)
        network.add_zone(ZONE_B)
        a = FakeHost("10.0.0.1")
        network.attach(a)
        with pytest.raises(NoRouteError):
            network.send(Packet(a.address, IPv4Address("10.1.0.1"), 100))

    def test_packet_to_missing_host_counted(self, sim, fabric):
        a = FakeHost("10.0.0.1")
        fabric.attach(a)
        fabric.send(Packet(a.address, IPv4Address("10.1.0.200"), 100))
        sim.run()
        assert fabric.packets_to_unknown_host == 1


class TestAttachment:
    def test_duplicate_address_rejected(self, fabric):
        fabric.attach(FakeHost("10.0.0.1"))
        with pytest.raises(NetworkError):
            fabric.attach(FakeHost("10.0.0.1"))


ZONE_C = Prefix.parse("10.2.0.0/24")


class TestPathMemo:
    """The integer-keyed path memo and host index follow the fabric."""

    def test_trunk_added_after_traffic_is_used_by_next_send(self, sim, fabric):
        a = FakeHost("10.0.0.1")
        b = FakeHost("10.1.0.1")
        c = FakeHost("10.2.0.1")
        for host in (a, b, c):
            fabric.attach(host)
        fabric.send(Packet(a.address, b.address, 100))
        with pytest.raises(NoRouteError, match="no zone for 10.2.0.1"):
            fabric.send(Packet(a.address, c.address, 100))
        fabric.add_zone(ZONE_C)
        with pytest.raises(NoRouteError, match="no trunk from zone 10.0.0.0/24"):
            fabric.send(Packet(a.address, c.address, 100))
        fabric.connect_zones(ZONE_A, ZONE_C, PathSpec(propagation_delay=0.010))
        fabric.send(Packet(a.address, c.address, 100))
        fabric.send(Packet(c.address, a.address, 100))
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
                network.send(Packet(a.address, IPv4Address("192.168.0.1"), 100))
            with pytest.raises(NoRouteError, match="no zone for 192.168.0.1"):
                network.send(Packet(IPv4Address("192.168.0.1"), a.address, 100))
            with pytest.raises(NoRouteError, match="no trunk from zone"):
                network.send(Packet(a.address, IPv4Address("10.1.0.1"), 100))
        assert sim.pending_events == 0

    def test_link_state_is_read_from_the_link_not_the_memo(self, sim, fabric):
        a = FakeHost("10.0.0.1")
        b = FakeHost("10.1.0.1")
        fabric.attach(a)
        fabric.attach(b)
        fabric.send(Packet(a.address, b.address, 100))
        sim.run()
        trunk = fabric.trunk_between(ZONE_A, ZONE_B)
        trunk.set_down()
        fabric.send(Packet(a.address, b.address, 100))
        sim.run()
        assert trunk.forward.stats.packets_dropped_down == 1
        trunk.set_up()
        fabric.send(Packet(a.address, b.address, 100))
        sim.run()
        assert len(b.received) == 2
