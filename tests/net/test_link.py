"""Unit tests for link serialization, queueing, propagation and loss."""


import pytest

from repro.net.addresses import IPv4Address
from repro.net.link import DuplexLink, Link
from repro.net.loss import BernoulliLoss
from repro.net.packet import Packet
from repro.sim.rand import RandomStreams

SRC = IPv4Address("10.0.0.1")
DST = IPv4Address("10.1.0.1")


def make_packet(size: int = 1500) -> Packet:
    return Packet(SRC, DST, size)


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
        assert link.serialization_time(1000) == pytest.approx(0.001)

    def test_stats_track_delivery(self, sim):
        link = Link(sim, bandwidth_bps=1e9, propagation_delay=0.001)
        link.transmit(make_packet(100), lambda p: None)
        sim.run()
        assert link.stats.packets_offered == 1
        assert link.stats.packets_delivered == 1
        assert link.stats.bytes_delivered == 100
        assert link.stats.packets_dropped == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bandwidth_bps": 0},
            {"bandwidth_bps": -1},
            {"propagation_delay": -0.1},
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
            link.transmit(make_packet(1250), lambda p: delivered.append(p.packet_id))
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
            link.transmit(packet, lambda p: order.append(p.packet_id))
        sim.run()
        assert order == [p.packet_id for p in packets]

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
        link = Link(
            sim,
            bandwidth_bps=1e6,
            propagation_delay=0.0,
            loss_model=BernoulliLoss(0.999999),
            streams=RandomStreams(1),
        )
        arrivals = []
        link.transmit(make_packet(1250), lambda p: arrivals.append(sim.now))
        link.transmit(make_packet(1250), lambda p: arrivals.append(sim.now))
        sim.run()
        # Both almost surely lost, but the wire was busy 20 ms total.
        assert sim.now == pytest.approx(0.02)


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
