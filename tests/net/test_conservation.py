"""Conservation properties of the network substrate.

Packets are never created or destroyed silently: everything offered to a
link is either delivered, dropped at the queue tail, dropped in flight,
or still inside the link when the clock stops.
"""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.addresses import IPv4Address
from repro.net.link import Link
from repro.net.loss import BernoulliLoss
from tests.datagram import Datagram
from repro.sim.kernel import Simulator
from repro.sim.rand import RandomStreams

SRC = IPv4Address("10.0.0.1")
DST = IPv4Address("10.1.0.1")

FAST = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FAST
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss=st.floats(min_value=0.0, max_value=0.5),
    queue=st.integers(min_value=1, max_value=64),
    count=st.integers(min_value=1, max_value=300),
)
def test_link_conserves_packets(seed, loss, queue, count):
    sim = Simulator()
    link = Link(
        sim,
        bandwidth_bps=10e6,
        propagation_delay=0.01,
        queue_limit_packets=queue,
        loss_model=BernoulliLoss(loss),
        streams=RandomStreams(seed),
    )
    delivered = []
    for _ in range(count):
        link.transmit(Datagram(SRC, DST, 1000), lambda p: delivered.append(p))
    sim.run()
    stats = link.stats
    assert stats.packets_offered == count
    assert (
        stats.packets_delivered
        + stats.packets_dropped_queue
        + stats.packets_dropped_loss
        == count
    )
    assert stats.packets_delivered == len(delivered)
    assert stats.bytes_delivered == 1000 * len(delivered)


@FAST
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sizes=st.lists(st.integers(min_value=40, max_value=1500), min_size=1, max_size=50),
)
def test_fifo_delivery_order(seed, sizes):
    """A lossless link delivers in exactly the offered order."""
    sim = Simulator()
    link = Link(sim, bandwidth_bps=5e6, propagation_delay=0.005)
    order = []
    packets = [Datagram(SRC, DST, size) for size in sizes]
    for packet in packets:
        link.transmit(packet, order.append)
    sim.run()
    assert [id(p) for p in order] == [id(p) for p in packets]


@FAST
@given(count=st.integers(min_value=1, max_value=100))
def test_throughput_bounded_by_bandwidth(count):
    """Delivery of N back-to-back packets takes at least N*serialization."""
    sim = Simulator()
    link = Link(sim, bandwidth_bps=8e6, propagation_delay=0.0)
    done = []
    for _ in range(count):
        link.transmit(Datagram(SRC, DST, 1000), lambda p: done.append(sim.now))
    sim.run()
    assert len(done) == count
    # 1000 B at 8 Mbps = 1 ms per packet.
    assert done[-1] == pytest.approx(count * 0.001)


class TestProbeAccounting:
    def test_every_issued_probe_is_tracked(self):
        from repro.cdn.cluster import CdnCluster, ClusterConfig
        from repro.cdn.topology import Topology, build_paper_topology

        full = build_paper_topology()
        topo = Topology(pops=tuple(p for p in full.pops if p.code in ("LHR", "JFK")))
        cluster = CdnCluster(topo, ClusterConfig(seed=9))
        fleet = cluster.make_probe_fleet(["LHR", "JFK"], interval=5.0)
        fleet.start(initial_delay=0.0)
        cluster.run(12.0)
        # 3 rounds x 2 sources x 1 target each x 3 sizes.
        assert len(fleet.results) == 3 * 2 * 1 * 3
        completed = fleet.completed_results()
        incomplete = [p for p in fleet.results if not p.completed]
        assert len(completed) + len(incomplete) == len(fleet.results)
        # On a clean fabric everything issued >1s before the end finished.
        assert len(incomplete) == 0
