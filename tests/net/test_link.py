"""Unit tests for link serialization, queueing, propagation and loss."""


import itertools
import random

import pytest

from repro.net.addresses import IPv4Address
from repro.net.link import DuplexLink, Link
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss
from tests.datagram import Datagram
from repro.sim.rand import RandomStreams

SRC = IPv4Address("10.0.0.1")
DST = IPv4Address("10.1.0.1")


def make_packet(size: int = 1500) -> Datagram:
    return Datagram(SRC, DST, size)


class DropAll(LossModel):
    """A wire that eats every packet, without touching the generator."""

    def should_drop(self, rng: random.Random) -> bool:
        return True

    def clone(self) -> "DropAll":
        return DropAll()


class TestLinkBasics:
    def test_delivery_includes_serialization_and_propagation(self, sim):
        link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.05)
        arrivals = []
        link.transmit(make_packet(1250), lambda p: arrivals.append(sim.now))
        sim.run()
        # 1250 B at 1 Mbps = 10 ms serialization + 50 ms propagation.
        assert arrivals == pytest.approx([0.06])

    def test_back_to_back_packets_serialize(self, sim):
        link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.0)
        arrivals = []
        for _ in range(3):
            link.transmit(make_packet(1250), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == pytest.approx([0.01, 0.02, 0.03])

    def test_serialization_time(self, sim):
        link = Link(sim, bandwidth_bps=8e6, propagation_delay=0.0)
        arrivals = []
        link.transmit(make_packet(1000), lambda p: arrivals.append(sim.now))
        sim.run()
        assert link.capacity_bps == 8e6
        assert arrivals == [1000 * 8.0 / 8e6]

    def test_stats_track_delivery(self, sim):
        link = Link(sim, bandwidth_bps=1e9, propagation_delay=0.001)
        link.transmit(make_packet(100), lambda p: None)
        sim.run()
        assert link.stats.packets_offered == 1
        assert link.stats.packets_delivered == 1
        assert link.stats.bytes_delivered == 100
        assert link.stats.packets_dropped_queue == link.stats.packets_dropped_loss == 0
        assert link.stats.packets_dropped_down == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bandwidth_bps": 0},
            {"bandwidth_bps": -1},
            {"bandwidth_bps": float("nan")},
            {"bandwidth_bps": float("inf")},
            {"propagation_delay": -0.1},
            {"propagation_delay": float("nan")},
            {"propagation_delay": float("inf")},
            {"queue_limit_packets": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, sim, kwargs):
        defaults = {"bandwidth_bps": 1e6, "propagation_delay": 0.0}
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            Link(sim, **defaults)


class TestQueueing:
    def test_queue_overflow_drops_tail(self, sim):
        link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.0, queue_limit_packets=2)
        delivered = []
        results = [
            link.transmit(make_packet(1250), delivered.append)
            for _ in range(5)
        ]
        sim.run()
        # One transmits immediately, two queue, two are tail-dropped.
        assert results == [True, True, True, False, False]
        assert len(delivered) == 3
        assert link.stats.packets_dropped_queue == 2

    def test_queue_drains_in_fifo_order(self, sim):
        link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.0, queue_limit_packets=10)
        order = []
        packets = [make_packet(125) for _ in range(4)]
        for packet in packets:
            link.transmit(packet, order.append)
        sim.run()
        assert [id(p) for p in order] == [id(p) for p in packets]

    def test_max_queue_depth_recorded(self, sim):
        link = Link(sim, bandwidth_bps=1e3, propagation_delay=0.0, queue_limit_packets=10)
        for _ in range(5):
            link.transmit(make_packet(100), lambda p: None)
        assert link.stats.max_queue_depth >= 4


class TestLoss:
    def test_lossy_link_drops_packets(self, sim):
        link = Link(
            sim,
            bandwidth_bps=1e9,
            propagation_delay=0.0,
            queue_limit_packets=2000,
            loss_model=BernoulliLoss(0.5),
            streams=RandomStreams(4),
        )
        delivered = []
        for _ in range(1000):
            link.transmit(make_packet(100), lambda p: delivered.append(1))
        sim.run()
        assert 400 < len(delivered) < 600
        assert link.stats.packets_dropped_loss == 1000 - len(delivered)

    def test_lost_packet_still_occupies_transmitter(self, sim):
        link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.0)
        arrivals = []
        link.set_loss_override(DropAll())
        link.transmit(make_packet(1250), lambda p: arrivals.append(sim.now))
        link.transmit(make_packet(1250), lambda p: arrivals.append(sim.now))
        link.set_loss_override(None)
        link.transmit(make_packet(1250), lambda p: arrivals.append(sim.now))
        sim.run()
        # Both lost packets held the wire 10 ms each before the third's turn.
        assert arrivals == pytest.approx([0.03])
        assert link.stats.packets_dropped_loss == 2


def lost_indices(sim, link: Link, indices: range) -> list[int]:
    """The indices of ``indices`` the link loses, one packet each."""
    delivered: set[int] = set()
    for index in indices:
        link.transmit(make_packet(100), lambda p, i=index: delivered.add(i))
    sim.run()
    return [index for index in indices if index not in delivered]


def dropped_by(stream: random.Random, model: LossModel, indices: range) -> list[int]:
    """The indices ``model.should_drop`` drops, drawing from ``stream``."""
    return [index for index in indices if model.should_drop(stream)]


class CountedBernoulli(BernoulliLoss):
    """A ``BernoulliLoss`` subclass: the link must call its method."""

    def __init__(self, probability: float) -> None:
        super().__init__(probability)
        self.calls = 0

    def should_drop(self, rng: random.Random) -> bool:
        self.calls += 1
        return super().should_drop(rng)


class TestInLineBernoulliDraw:
    """``transmit`` draws an exact ``BernoulliLoss`` in line.  Per packet
    index, what it drops, and where it leaves the direction's generator,
    must be what ``should_drop`` drops and leaves."""

    SEED = 20_160_627
    PACKETS = 3000

    def link(self, sim, model: LossModel) -> tuple[Link, random.Random]:
        """A link over ``model`` and a fresh generator of its stream's name."""
        link = Link(
            sim, 1e9, 0.0, self.PACKETS, model, name="trunk:fwd",
            streams=RandomStreams(self.SEED),
        )
        return link, RandomStreams(self.SEED).stream("loss:trunk:fwd")

    @pytest.mark.parametrize("probability", [0.0, 0.01, 0.3])
    def test_drops_and_stream_state_match_should_drop(self, sim, probability):
        link, stream = self.link(sim, BernoulliLoss(probability))
        packets = range(self.PACKETS)
        assert lost_indices(sim, link, packets) == dropped_by(
            stream, BernoulliLoss(probability), packets
        )
        assert link._rng.getstate() == stream.getstate()

    def test_probability_is_read_live(self, sim):
        model, twin = BernoulliLoss(0.01), BernoulliLoss(0.01)
        link, stream = self.link(sim, model)
        lost, expected = [], []
        for first, probability in ((0, 0.3), (1000, 0.0), (2000, 0.01)):
            packets = range(first, first + 1000)
            lost += lost_indices(sim, link, packets)
            expected += dropped_by(stream, twin, packets)
            model.probability = twin.probability = probability
        assert lost == expected
        assert link._rng.getstate() == stream.getstate()

    def test_gilbert_elliott_override_set_and_cleared(self, sim):
        def storm() -> GilbertElliottLoss:
            return GilbertElliottLoss(0.05, 0.25, loss_good=0.01, loss_bad=0.6)

        link, stream = self.link(sim, BernoulliLoss(0.01))
        calm, stormy, after = range(0, 1000), range(1000, 2000), range(2000, 3000)
        lost = lost_indices(sim, link, calm)
        link.set_loss_override(storm())
        lost += lost_indices(sim, link, stormy)
        link.set_loss_override(None)
        lost += lost_indices(sim, link, after)
        expected = dropped_by(stream, BernoulliLoss(0.01), calm)
        expected += dropped_by(stream, storm(), stormy)
        expected += dropped_by(stream, BernoulliLoss(0.01), after)
        assert lost == expected
        assert link._rng.getstate() == stream.getstate()

    @pytest.mark.parametrize("as_override", [False, True], ids=["configured", "override"])
    def test_a_subclass_keeps_its_method(self, sim, as_override):
        model = CountedBernoulli(0.3)
        link, stream = self.link(sim, BernoulliLoss(0.01) if as_override else model)
        if as_override:
            link.set_loss_override(model)
        packets = range(self.PACKETS)
        assert lost_indices(sim, link, packets) == dropped_by(
            stream, BernoulliLoss(0.3), packets
        )
        assert model.calls == self.PACKETS


class TestSameInstant:
    """A serialization completion at t frees its queue slot before any
    offer at t is judged against ``queue_limit_packets``."""

    def _offer_at(self, sim, link, time, accepted, arrivals):
        def offer():
            accepted.append(link.transmit(make_packet(1500), arrivals.append))

        sim.schedule_at(time, offer)

    def test_offer_at_a_completion_takes_the_freed_slot(self, sim):
        # 1500 B at 1 Gbit/s: 12 us on the wire.  A is on the wire, B
        # waits and fills the one-packet queue; C arrives the instant A
        # finishes, from an event scheduled before either transmit.
        link = Link(sim, bandwidth_bps=1e9, propagation_delay=0.0, queue_limit_packets=1)
        tx = 1500 * 8.0 / link.capacity_bps
        assert tx == 12e-6
        accepted, arrivals = [], []
        self._offer_at(sim, link, tx, accepted, arrivals)
        assert link.transmit(make_packet(1500), arrivals.append)
        assert link.transmit(make_packet(1500), arrivals.append)
        sim.run()
        assert accepted == [True]
        assert len(arrivals) == 3
        assert link.stats.packets_dropped_queue == 0
        assert sim.now == 3 * tx

    def test_offer_before_the_completion_is_dropped(self, sim):
        link = Link(sim, bandwidth_bps=1e9, propagation_delay=0.0, queue_limit_packets=1)
        tx = 1500 * 8.0 / link.capacity_bps
        accepted, arrivals = [], []
        self._offer_at(sim, link, tx * 0.999, accepted, arrivals)
        link.transmit(make_packet(1500), arrivals.append)
        link.transmit(make_packet(1500), arrivals.append)
        sim.run()
        assert accepted == [False]
        assert link.stats.packets_dropped_queue == 1


class TestFaultsReadAtAcceptance:
    """Link state is read when a packet is accepted, never later."""

    def _pair(self, sim, change):
        """Accept A, apply ``change``, accept B; the two arrival times."""
        link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.0)
        arrivals: dict[str, float] = {}
        link.transmit(make_packet(1250), lambda p: arrivals.setdefault("A", sim.now))
        change(link)
        link.transmit(make_packet(1250), lambda p: arrivals.setdefault("B", sim.now))
        sim.run()
        return link, arrivals

    def test_degrade_applies_to_packets_accepted_after_it(self, sim):
        link, arrivals = self._pair(
            sim, lambda link: link.degrade(bandwidth_scale=0.5, extra_delay=0.1)
        )
        # A: 10 ms at 1 Mbit/s.  B: 20 ms at half that, then 100 ms more.
        assert arrivals == pytest.approx({"A": 0.01, "B": 0.13})

    def test_restore_does_not_reach_an_accepted_packet(self, sim):
        def degrade_then_restore(link):
            link.degrade(bandwidth_scale=0.5, extra_delay=0.1)
            link.transmit(make_packet(1250), lambda p: None)
            link.restore()

        link, arrivals = self._pair(sim, degrade_then_restore)
        # The middle packet keeps its 20 ms + 100 ms; B follows at full rate.
        assert arrivals == pytest.approx({"A": 0.01, "B": 0.04})

    def test_fluid_load_applies_to_packets_accepted_after_it(self, sim):
        link, arrivals = self._pair(sim, lambda link: link.set_fluid_load(0.5e6))
        assert arrivals == pytest.approx({"A": 0.01, "B": 0.03})

    def test_loss_override_applies_to_packets_accepted_after_it(self, sim):
        link, arrivals = self._pair(sim, lambda link: link.set_loss_override(DropAll()))
        assert list(arrivals) == ["A"]
        assert link.stats.packets_dropped_loss == 1

    def test_clearing_the_override_does_not_save_an_accepted_packet(self, sim):
        def storm_for_one_packet(link):
            link.set_loss_override(DropAll())
            link.transmit(make_packet(1250), lambda p: None)
            link.set_loss_override(None)

        link, arrivals = self._pair(sim, storm_for_one_packet)
        assert list(arrivals) == ["A", "B"]
        assert link.stats.packets_dropped_loss == 1


class TestSetDown:
    def test_busy_direction_drops_the_queue_and_the_wire_at_the_call(self, sim):
        link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.05)
        arrivals = []
        for _ in range(4):
            link.transmit(make_packet(1250), lambda p: arrivals.append(sim.now))
        # At 15 ms the first packet is in propagation, the second on the
        # wire and two wait.
        sim.run(until=0.015)
        assert link.queue_depth == 2
        link.set_down()
        assert link.stats.packets_dropped_down == 3
        assert link.queue_depth == 0
        sim.run()
        assert arrivals == pytest.approx([0.06])
        assert link.stats.packets_dropped_down == 3
        assert link.stats.packets_delivered == 1

    def test_a_packet_the_draw_took_stays_lost(self, sim):
        link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.0)
        link.transmit(make_packet(1250), lambda p: None)
        link.set_loss_override(DropAll())
        link.transmit(make_packet(1250), lambda p: None)
        link.set_down()
        sim.run()
        stats = link.stats
        assert (stats.packets_dropped_down, stats.packets_dropped_loss) == (1, 1)

    def test_the_link_is_free_again_after_set_up(self, sim):
        link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.0)
        arrivals = []
        link.transmit(make_packet(1250), lambda p: arrivals.append(("old", sim.now)))
        link.set_down()
        link.set_up()
        link.transmit(make_packet(1250), lambda p: arrivals.append(("new", sim.now)))
        sim.run()
        assert arrivals == [("new", pytest.approx(0.01))]


def derived_capacity(link: Link) -> float:
    """The serialization rate as the link derived it per packet before it
    was stored: the degraded bandwidth less the fluid load, floored at 5%."""
    capacity = link.bandwidth_bps * link.bandwidth_scale
    if link.fluid_bps:
        residual = capacity - link.fluid_bps
        floor = capacity * 0.05
        capacity = residual if residual > floor else floor
    return capacity


class TestStoredCapacity:
    """``capacity_bps`` is refreshed by every writer of its inputs, to the
    float the per-packet derivation gave."""

    STEPS = {
        "degrade": lambda link: link.degrade(bandwidth_scale=0.37, extra_delay=0.01),
        "degrade_hard": lambda link: link.degrade(bandwidth_scale=0.1),
        "restore": lambda link: link.restore(),
        "fluid": lambda link: link.set_fluid_load(0.3e9 / 7),
        # Above 95% of even the undegraded capacity: the 5% floor holds.
        "fluid_overload": lambda link: link.set_fluid_load(0.97e9),
        "fluid_clear": lambda link: link.set_fluid_load(0.0),
    }

    def test_fresh_link(self, sim):
        link = Link(sim, bandwidth_bps=1e9, propagation_delay=0.0)
        assert link.capacity_bps == derived_capacity(link) == 1e9

    @pytest.mark.parametrize("order", list(itertools.permutations(STEPS, 3)), ids="-".join)
    def test_every_order_of_writers(self, sim, order):
        link = Link(sim, bandwidth_bps=1e9 / 3, propagation_delay=0.0)
        for name in order:
            self.STEPS[name](link)
            assert link.capacity_bps == derived_capacity(link)

    def test_floor_under_overload(self, sim):
        link = Link(sim, bandwidth_bps=1e9, propagation_delay=0.0)
        link.degrade(bandwidth_scale=0.5)
        link.set_fluid_load(0.96 * 0.5e9)
        assert link.capacity_bps == 0.5e9 * 0.05
        arrivals = []
        link.transmit(make_packet(1250), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [1250 * 8.0 / (0.5e9 * 0.05)]


class TestLosslessWire:
    """A direction with no loss model draws nothing and resolves no stream;
    one that a storm makes lossy draws what it always drew."""

    #: Packets lost on a lossless ``trunk:fwd`` over ``RandomStreams(SEED)``
    #: through the storms below, as the link lost them while every lossless
    #: direction held a ``NoLoss`` and resolved its stream at its first
    #: packet.  A stream is a function of ``(master_seed, name)`` alone.
    STORM_DROPS = [
        100, 107, 109, 110, 112, 114, 119, 120, 125, 126, 127, 130, 135, 138,
        139, 143, 155, 156, 200, 201, 211, 212, 213, 266, 273,
    ]
    SEED = 20_160_627

    @pytest.mark.parametrize("model", [None, NoLoss()], ids=["none", "noloss"])
    def test_no_stream_over_a_thousand_packets(self, sim, model):
        streams = RandomStreams(self.SEED)
        link = Link(sim, 1e9, 0.0, 2000, model, name="trunk:fwd", streams=streams)
        delivered = []
        for _ in range(1000):
            link.transmit(make_packet(100), delivered.append)
        sim.run()
        assert len(delivered) == 1000
        assert link._rng is None
        assert "loss:trunk:fwd" not in repr(streams)
        assert isinstance(link.effective_loss_model, NoLoss)

    @pytest.mark.parametrize("model", [None, NoLoss()], ids=["none", "noloss"])
    def test_storm_on_a_lossless_link_drops_what_it_always_dropped(self, sim, model):
        streams = RandomStreams(self.SEED)
        link = Link(sim, 1e9, 0.0, 5000, model, name="trunk:fwd", streams=streams)
        delivered: list[int] = []

        def send(first: int, end: int) -> None:
            for index in range(first, end):
                link.transmit(make_packet(100), lambda p, i=index: delivered.append(i))

        send(0, 100)
        link.set_loss_override(BernoulliLoss(0.3))
        send(100, 160)
        link.set_loss_override(None)
        send(160, 200)
        link.set_loss_override(
            GilbertElliottLoss(0.05, 0.25, loss_good=0.01, loss_bad=0.6)
        )
        send(200, 300)
        link.set_loss_override(None)
        sim.run()
        assert sorted(set(range(300)) - set(delivered)) == self.STORM_DROPS
        assert link.stats.packets_dropped_loss == len(self.STORM_DROPS)


class TestNanRejected:
    def test_degrade_extra_delay(self, sim):
        link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.0)
        with pytest.raises(ValueError):
            link.degrade(extra_delay=float("nan"))
        assert link.extra_delay == 0.0

    def test_fluid_load(self, sim):
        link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.0)
        with pytest.raises(ValueError):
            link.set_fluid_load(float("nan"))
        assert link.fluid_bps == 0.0


class TestInfinityRejected:
    """+inf passes a NaN-safe ``>= 0`` check; let in, it carries the clock
    (and every later arrival) to +inf."""

    def test_degrade_extra_delay(self, sim):
        link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.0)
        with pytest.raises(ValueError):
            link.degrade(extra_delay=float("inf"))
        assert link.extra_delay == 0.0


class TestDuplexLink:
    def test_directions_are_independent(self, sim):
        duplex = DuplexLink(sim, bandwidth_bps=1e6, propagation_delay=0.01)
        forward, backward = [], []
        duplex.forward.transmit(make_packet(125), lambda p: forward.append(sim.now))
        duplex.reverse.transmit(make_packet(125), lambda p: backward.append(sim.now))
        sim.run()
        assert len(forward) == 1 and len(backward) == 1

    def test_rtt_is_sum_of_propagation(self, sim):
        duplex = DuplexLink(sim, bandwidth_bps=1e9, propagation_delay=0.030)
        assert duplex.rtt == pytest.approx(0.060)

    def test_loss_state_is_per_direction(self, sim):
        duplex = DuplexLink(
            sim,
            bandwidth_bps=1e9,
            propagation_delay=0.0,
            loss_model=BernoulliLoss(0.3),
        )
        assert duplex.forward._loss is not duplex.reverse._loss

    def test_directions_built_without_generators_lose_different_packets(self, sim):
        """Regression: both directions fell back to ``random.Random(0)`` and
        lost the identical packet indices."""
        duplex = DuplexLink(sim, 1e9, 0.0, 5000, BernoulliLoss(0.3))
        delivered: dict[str, list[int]] = {"fwd": [], "rev": []}
        for index in range(2000):
            duplex.forward.transmit(
                make_packet(100), lambda p, i=index: delivered["fwd"].append(i)
            )
            duplex.reverse.transmit(
                make_packet(100), lambda p, i=index: delivered["rev"].append(i)
            )
        sim.run()
        for indices in delivered.values():
            assert 1300 < len(indices) < 1500
        assert delivered["fwd"] != delivered["rev"]


class TestQueueDepthGauge:
    """Regression: the link_queue_depth gauge was set on enqueue only, so
    after a burst drained it stayed stuck at the peak."""

    def test_gauge_returns_to_zero_when_queue_empties(self):
        from repro.obs.instrument import capture
        from repro.sim.kernel import Simulator

        with capture() as instrumentation:
            sim = Simulator()
            link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.001)
            for _ in range(10):
                link.transmit(make_packet(1250), lambda p: None)
            gauge = instrumentation.metrics.gauge("link_queue_depth")
            assert gauge.value > 0
            sim.run()
            assert link.queue_depth == 0
            assert gauge.value == 0
            # The high-water mark still records the burst peak.
            assert gauge.max_value == 9

    def test_gauge_tracks_partial_drain(self):
        from repro.obs.instrument import capture
        from repro.sim.kernel import Simulator

        with capture() as instrumentation:
            sim = Simulator()
            link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.0)
            for _ in range(5):
                link.transmit(make_packet(1250), lambda p: None)
            gauge = instrumentation.metrics.gauge("link_queue_depth")
            # 10 ms per packet; by 25 ms three have been popped to the
            # wire (at 0, 10 and 20 ms), so two still wait in the queue.
            sim.run(until=0.025)
            assert gauge.value == link.queue_depth == 2

    def test_in_line_writes_match_gauge_set(self):
        """Value, high-water mark and their types as ``Gauge.set`` leaves
        them after every write the link makes: on each accepted offer, on
        each arrival, and when ``set_down`` catches unfinished packets.
        The first write is an int depth of 0, which replaces the float
        initial mark."""
        from repro.obs.instrument import capture
        from repro.obs.metrics import Gauge
        from repro.sim.kernel import Simulator

        def shape(gauge):
            return (gauge.value, type(gauge.value), gauge.max_value, type(gauge.max_value))

        with capture() as instrumentation:
            sim = Simulator()
            # 10 ms per packet on the wire, 1 ms of propagation.
            link = Link(sim, bandwidth_bps=1e6, propagation_delay=0.001, queue_limit_packets=3)
            gauge = instrumentation.metrics.gauge("link_queue_depth")
            reference = Gauge("reference")
            assert shape(gauge) == shape(reference)
            checked = []

            def arrived(packet):
                reference.set(link.queue_depth)
                assert shape(gauge) == shape(reference)
                checked.append(sim.now)

            def offer(count):
                for _ in range(count):
                    if link.transmit(make_packet(1250), arrived):
                        reference.set(link.queue_depth)
                    assert shape(gauge) == shape(reference)

            offer(1)
            assert shape(gauge) == (0, int, 0, int)
            offer(6)  # three wait, the rest overflow the queue
            sim.run(until=0.025)
            assert checked == pytest.approx([0.011, 0.021])
            link.set_down()
            reference.set(0)
            assert shape(gauge) == shape(reference)
            offer(2)  # dropped as down: no write
            link.set_up()
            sim.run(until=0.2)
            offer(3)
            sim.run()
        assert len(checked) == 5
        assert shape(gauge) == (0, int, 3, int)
