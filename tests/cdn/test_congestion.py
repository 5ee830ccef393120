"""A congested trunk slows transfers, and Riptide's learned window follows it.

The paper's adaptivity claim — "if the set of connections to a
destination do demonstrate smaller windows, Riptide will respond
accordingly, shrinking the initial windows" — needs a way to *make*
windows shrink.  ``Link.set_fluid_load`` reserves a share of one link
direction for background traffic, so TCP flows sharing the trunk
serialize against the residual capacity and see queueing delay and
drops exactly as they would under competing packets.
"""

from repro.core import RiptideAgent, RiptideConfig
from repro.net import Prefix
from repro.tcp import TcpConfig
from repro.testing import TwoHostTestbed, request_response


def make_testbed(bandwidth_bps=100e6, queue=64):
    bed = TwoHostTestbed(
        rtt=0.080,
        bandwidth_bps=bandwidth_bps,
        client_config=TcpConfig(default_initrwnd=300),
        server_config=TcpConfig(default_initrwnd=300),
    )
    # A shallow trunk queue, so a congested direction drops bursts.
    for link in (bed.trunk.forward, bed.trunk.reverse):
        link.queue_limit_packets = queue
    bed.serve_echo()
    return bed


class TestCongestedTrunk:
    def test_congestion_slows_transfers(self):
        """500 KB over the clean 100 Mbps trunk takes 1.86 s; with 92% of
        the response direction reserved it takes 5.37 s."""
        clean = make_testbed()
        clean_time = request_response(clean, response_bytes=500_000).total_time

        congested = make_testbed()
        # Saturate 92% of the response direction.
        congested.trunk.reverse.set_fluid_load(92e6)
        congested.sim.run(until=congested.sim.now + 0.5)
        congested_time = request_response(
            congested, response_bytes=500_000, deadline=120.0
        ).total_time
        assert congested_time > clean_time * 1.3

    def test_congestion_causes_queue_drops_for_bursts(self):
        """A 200-segment initial burst into a 32-packet queue draining at
        5% of line rate completes, after 170 queue drops."""
        bed = make_testbed(queue=32)
        bed.trunk.reverse.set_fluid_load(95e6)
        bed.sim.run(until=0.5)
        bed.server.ip.route_replace("10.0.0.0/24", initcwnd=200)
        result = request_response(bed, response_bytes=400_000, deadline=120.0)
        assert result.completed
        assert bed.trunk.reverse.stats.packets_dropped_queue > 0


class TestRiptideAdapts:
    def test_learned_window_shrinks_under_congestion(self):
        """The paper's adaptivity claim, end to end: a congestion episode
        shrinks live windows, and Riptide's learned value follows.

        Observed: 178 segments learned on the clean path, 158 after three
        transfers under 90% load."""
        bed = make_testbed(bandwidth_bps=50e6, queue=48)
        agent = RiptideAgent(
            bed.server, RiptideConfig(update_interval=0.25, alpha=0.5, c_max=500)
        )
        agent.start()
        key = Prefix.host(bed.client.address)

        # Clean period: learn a healthy window.
        request_response(bed, response_bytes=1_500_000, deadline=60.0)
        bed.sim.run(until=bed.sim.now + 1.0)
        healthy = agent.learned_window_for(key)
        assert healthy is not None and healthy > 30

        # Congestion episode: 90% of the data direction consumed.
        bed.trunk.reverse.set_fluid_load(45e6)
        for _ in range(3):
            request_response(bed, response_bytes=400_000, deadline=120.0)
        bed.sim.run(until=bed.sim.now + 2.0)
        congested = agent.learned_window_for(key)
        assert congested is not None
        assert congested < healthy

    def test_window_recovers_after_congestion_clears(self):
        """Observed: 163 segments learned under 96% load, 500 (``c_max``)
        after the load clears and three clean transfers."""
        # A deep buffer (>= BDP) so the clean path can carry big windows.
        bed = make_testbed(bandwidth_bps=50e6, queue=512)
        agent = RiptideAgent(
            bed.server, RiptideConfig(update_interval=0.25, alpha=0.3, c_max=500)
        )
        agent.start()
        key = Prefix.host(bed.client.address)

        def drain_connections():
            for sock in list(bed.client.sockets()) + list(bed.server.sockets()):
                sock.abort()
            bed.sim.run(until=bed.sim.now + 0.5)

        # Severe congestion episode: 96% of the data direction consumed.
        bed.trunk.reverse.set_fluid_load(48e6)
        for _ in range(2):
            request_response(bed, response_bytes=150_000, deadline=120.0)
            bed.sim.run(until=bed.sim.now + 0.5)
        congested = agent.learned_window_for(key)
        assert congested is not None

        # Congestion clears; stale collapsed connections retire with it.
        bed.trunk.reverse.set_fluid_load(0.0)
        drain_connections()
        for _ in range(3):
            request_response(bed, response_bytes=1_500_000, deadline=60.0)
            bed.sim.run(until=bed.sim.now + 0.5)
        recovered = agent.learned_window_for(key)
        assert recovered is not None
        assert recovered > congested
