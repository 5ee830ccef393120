"""When a trunk direction's loss stream comes into being moves no draw.

Every trunk direction draws its in-flight loss from the stream named
``loss:<a><-><b>:fwd|rev`` of the fabric's one ``RandomStreams``, and
``RandomStreams`` derives a stream from ``(master_seed, name)`` alone
(``sim/rand.py``).  So which trunk was connected first and which
direction carried a packet first are not inputs to any result: a
direction loses the same packet indices whenever its generator was
seeded.  The fabric relies on that — a direction's generator and queue
are built by the first packet that needs them — and this file holds it.

Two fabrics over ``RandomStreams(SEED)`` connect the same three zones in
opposite orders and use the six directions in opposite orders; per named
direction they must deliver the same packet indices, and those indices
must be the ones a fresh generator of that name leaves standing.  The
fault entry points (``set_loss_override``, ``set_down``, ``set_up``) are
driven on directions no packet has crossed yet as well as on busy ones.
"""

from __future__ import annotations

import random

import pytest

from repro.net.addresses import IPv4Address, Prefix
from repro.net.link import Link
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel
from repro.net.network import Network, PathSpec
from repro.net.packet import Packet
from tests.datagram import Datagram
from repro.sim.kernel import Simulator
from repro.sim.rand import RandomStreams

SEED = 20_160_627
ZONES = tuple(Prefix.parse(f"10.{index}.0.0/24") for index in range(3))
PAIRS = ((0, 1), (0, 2), (1, 2))
DIRECTIONS = tuple(
    direction for a, b in PAIRS for direction in ((a, b), (b, a))
)
BURST = 200

MODELS = {
    "bernoulli": BernoulliLoss(0.2),
    "gilbert_elliott": GilbertElliottLoss(0.05, 0.25, loss_good=0.01, loss_bad=0.6),
}


class Sink:
    """A host that keeps the ``(direction, index)`` tag of what arrives."""

    def __init__(self, address: str) -> None:
        self.address = IPv4Address(address)
        self.received: list[tuple[str, int]] = []

    def receive_packet(self, packet: Packet) -> None:
        self.received.append(packet.tag)


class Fabric:
    """Three zones in a triangle; ``mirrored`` flips every order it can."""

    def __init__(
        self, model: LossModel, mirrored: bool, bandwidth_bps: float = 1e9
    ) -> None:
        self.sim = Simulator()
        self.network = Network(self.sim, RandomStreams(SEED))
        for zone in ZONES:
            self.network.add_zone(zone)
        spec = PathSpec(
            bandwidth_bps=bandwidth_bps, propagation_delay=0.01, loss_model=model
        )
        for a, b in reversed(PAIRS) if mirrored else PAIRS:
            self.network.connect_zones(ZONES[a], ZONES[b], spec)
        self.hosts = [Sink(f"10.{index}.0.1") for index in range(3)]
        for host in self.hosts:
            self.network.attach(host)
        self.directions = tuple(reversed(DIRECTIONS)) if mirrored else DIRECTIONS
        self._offered: dict[str, int] = {}

    def link(self, src: int, dst: int) -> Link:
        link = self.network.link_from(ZONES[src], ZONES[dst])
        assert link is not None
        return link

    def burst(self, src: int, dst: int, count: int = BURST) -> None:
        """Offer the direction's next ``count`` packet indices."""
        name = self.link(src, dst).name
        first = self._offered.get(name, 0)
        self._offered[name] = first + count
        for index in range(first, first + count):
            self.network.send(
                Datagram(
                    self.hosts[src].address, self.hosts[dst].address, 1000,
                    tag=(name, index),
                )
            )

    def delivered(self) -> dict[str, list[int]]:
        """Packet indices that arrived, per direction name, in order."""
        by_name: dict[str, list[int]] = {
            self.link(src, dst).name: [] for src, dst in DIRECTIONS
        }
        for host in self.hosts:
            for name, index in host.received:
                by_name[name].append(index)
        return by_name


def both(model: LossModel, **kwargs: float) -> tuple[Fabric, Fabric]:
    return Fabric(model, mirrored=False, **kwargs), Fabric(model, mirrored=True, **kwargs)


def named_stream(link: Link) -> random.Random:
    """A fresh generator of the name the fabric gives ``link``."""
    return RandomStreams(SEED).stream("loss:" + link.name)


def survivors(stream: random.Random, model: LossModel, indices: range) -> list[int]:
    """The indices ``model`` lets through, one draw sequence per packet."""
    return [index for index in indices if not model.should_drop(stream)]


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_connect_and_first_use_order_move_no_draw(model: LossModel) -> None:
    fabrics = both(model)
    for fabric in fabrics:
        # Two rounds, so every stream is consumed in interleaved pieces.
        for _ in range(2):
            for src, dst in fabric.directions:
                fabric.burst(src, dst)
            fabric.sim.run()
    plain, mirrored = (fabric.delivered() for fabric in fabrics)
    assert plain == mirrored
    for src, dst in DIRECTIONS:
        link = fabrics[0].link(src, dst)
        assert plain[link.name] == survivors(
            named_stream(link), model.clone(), range(2 * BURST)
        )
        assert link.stats.packets_dropped_loss == 2 * BURST - len(plain[link.name])
    # Six directions, six streams: no two lose the same packets.
    assert len({tuple(indices) for indices in plain.values()}) == len(DIRECTIONS)


@pytest.mark.parametrize(
    "storm",
    [BernoulliLoss(0.5), GilbertElliottLoss(0.05, 0.25, loss_bad=0.9)],
    ids=["uniform", "bursty"],
)
def test_override_set_before_the_first_packet_and_cleared_mid_stream(
    storm: LossModel,
) -> None:
    model = MODELS["bernoulli"]
    fabrics = both(model)
    for fabric in fabrics:
        trunk = fabric.network.trunk_between(ZONES[0], ZONES[1])
        assert trunk is not None
        trunk.set_loss_override(storm)
        assert trunk.forward.effective_loss_model is not trunk.reverse.effective_loss_model
        for src, dst in fabric.directions:
            fabric.burst(src, dst)
        fabric.sim.run()
        trunk.set_loss_override(None)
        for src, dst in fabric.directions:
            fabric.burst(src, dst)
        fabric.sim.run()
    plain, mirrored = (fabric.delivered() for fabric in fabrics)
    assert plain == mirrored
    for src, dst in ((0, 1), (1, 0)):
        link = fabrics[0].link(src, dst)
        stream = named_stream(link)
        # The storm's channel state is per direction and starts fresh; the
        # configured model's does too, as the storm kept it from a draw.
        expected = survivors(stream, storm.clone(), range(BURST))
        expected += survivors(stream, model.clone(), range(BURST, 2 * BURST))
        assert plain[link.name] == expected
    untouched = fabrics[0].link(0, 2)
    assert plain[untouched.name] == survivors(
        named_stream(untouched), model.clone(), range(2 * BURST)
    )


def test_down_and_up_on_a_busy_direction() -> None:
    model = MODELS["bernoulli"]
    # 1000 B at 1 Mbps: a packet leaves the transmitter every 8 ms.
    fabrics = both(model, bandwidth_bps=1e6)
    # Every accepted packet has its draw when the link accepts it, so the
    # 38 the failure catches have had theirs: the survivors among them are
    # dropped as down, the rest stay counted as lost.
    stream, channel = named_stream(fabrics[0].link(1, 2)), model.clone()
    crossed = survivors(stream, channel, range(12))
    caught = survivors(stream, channel, range(12, 50))
    expected = crossed + survivors(stream, channel, range(50, 100))
    for fabric in fabrics:
        link = fabric.link(1, 2)
        fabric.burst(1, 2, 50)
        fabric.burst(2, 1, 50)
        fabric.sim.run(until=0.1)
        # Twelve packets have left the transmitter, the thirteenth is on
        # the wire and the other 37 wait.
        assert link.queue_depth == 37
        link.set_down()
        assert link.queue_depth == 0
        assert link.stats.packets_dropped_down == len(caught)
        assert link.stats.packets_dropped_loss == 50 - len(crossed) - len(caught)
        fabric.sim.run()
        assert link.stats.packets_dropped_down == len(caught)
        assert link.stats.packets_delivered == len(crossed)
        link.set_up()
        fabric.burst(1, 2, 50)
        fabric.sim.run()
    plain, mirrored = (fabric.delivered() for fabric in fabrics)
    assert plain == mirrored
    link = fabrics[0].link(1, 2)
    assert plain[link.name] == expected
    other = fabrics[0].link(2, 1)
    assert plain[other.name] == survivors(named_stream(other), model.clone(), range(50))


def test_down_and_up_on_a_direction_no_packet_has_crossed() -> None:
    model = MODELS["bernoulli"]
    fabrics = both(model)
    for fabric in fabrics:
        link = fabric.link(2, 0)
        link.set_down()
        assert not link.up
        assert link.queue_depth == 0
        assert link.stats.packets_offered == 0
        assert link.stats.packets_dropped_down == 0
        assert "q=0" in repr(link)
        fabric.burst(2, 0, 5)
        fabric.sim.run()
        assert link.stats.packets_offered == 5
        assert link.stats.packets_dropped_down == 5
        assert link.queue_depth == 0
        link.set_up()
        for src, dst in fabric.directions:
            fabric.burst(src, dst, 100)
        fabric.sim.run()
    plain, mirrored = (fabric.delivered() for fabric in fabrics)
    assert plain == mirrored
    link = fabrics[0].link(2, 0)
    assert plain[link.name] == survivors(named_stream(link), model.clone(), range(5, 105))
    assert link.stats.packets_dropped_down == 5
