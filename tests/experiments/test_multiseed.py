"""The headline effect across seeds.

The paper reports single production runs; a simulation can repeat an
experiment across seeds and check that the effect is not an artifact of
one random draw.
"""

import statistics


class TestStabilityOfHeadlineResult:
    """The quickstart gain holds across seeds, not just the default one."""

    @staticmethod
    def cold_gain(seed: int) -> float:
        from repro.core.agent import RiptideAgent
        from repro.core.config import RiptideConfig
        from repro.tcp.constants import TcpConfig
        from repro.testing import TwoHostTestbed, request_response

        bed = TwoHostTestbed(
            rtt=0.100,
            seed=seed,
            client_config=TcpConfig(default_initrwnd=300),
            server_config=TcpConfig(default_initrwnd=300),
        )
        bed.serve_echo()
        cold = request_response(bed, response_bytes=100_000)
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=1_000_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        for sock in list(bed.client.sockets()):
            sock.close()
        bed.sim.run(until=bed.sim.now + 1.0)
        warm = request_response(bed, response_bytes=100_000)
        return 1.0 - warm.total_time / cold.total_time

    def test_gain_stable_across_seeds(self):
        gains = [self.cold_gain(seed) for seed in (1, 2, 3, 4)]
        assert all(0.3 <= gain <= 0.7 for gain in gains)
        assert statistics.stdev(gains) < 0.1
