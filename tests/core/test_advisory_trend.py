"""Tests for the Section V operational advisories."""

import pytest

from repro.core import Advisory, AdvisoryController, RiptideAgent, RiptideConfig
from repro.net import Prefix
from repro.tcp import TcpConfig
from repro.testing import TwoHostTestbed, request_response


class TestAdvisoryController:
    def test_no_advisories_means_full_scale(self):
        assert AdvisoryController().scale_at(0.0) == 1.0

    def test_active_advisory_scales(self):
        controller = AdvisoryController()
        controller.advise(scale=0.5, duration=10.0, now=0.0)
        assert controller.scale_at(5.0) == 0.5

    def test_advisory_expires(self):
        controller = AdvisoryController()
        controller.advise(scale=0.5, duration=10.0, now=0.0)
        assert controller.scale_at(10.0) == 1.0

    def test_most_conservative_wins(self):
        controller = AdvisoryController()
        controller.advise(scale=0.8, duration=10.0, now=0.0)
        controller.advise(scale=0.4, duration=10.0, now=0.0)
        assert controller.scale_at(1.0) == 0.4

    @pytest.mark.parametrize("scale", [0.0, -0.5, 1.5])
    def test_invalid_scale_rejected(self, scale):
        with pytest.raises(ValueError):
            Advisory(scale=scale, until=10.0)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            AdvisoryController().advise(scale=0.5, duration=0.0, now=0.0)

    def test_advise_prunes_expired_entries(self):
        # A controller that only ever receives advisories must not grow
        # without bound: each advise() call drops already-expired entries.
        controller = AdvisoryController()
        for i in range(100):
            controller.advise(scale=0.5, duration=1.0, now=float(i * 10))
        assert len(controller._advisories) == 1

    def test_advise_keeps_live_entries(self):
        controller = AdvisoryController()
        controller.advise(scale=0.8, duration=100.0, now=0.0)
        controller.advise(scale=0.4, duration=1.0, now=50.0)
        controller.advise(scale=0.6, duration=100.0, now=60.0)
        # The short advisory expired at t=51; the long ones survive.
        assert len(controller._advisories) == 2
        assert controller.scale_at(70.0) == 0.6


def make_testbed():
    bed = TwoHostTestbed(
        rtt=0.080,
        client_config=TcpConfig(default_initrwnd=300),
        server_config=TcpConfig(default_initrwnd=300),
    )
    bed.serve_echo()
    return bed


class TestAgentIntegration:
    def test_advisory_scales_installed_windows(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=1_000_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        key = Prefix.host(bed.client.address)
        unscaled = agent.learned_window_for(key)
        assert unscaled == 100  # clamped at c_max

        agent.advise_conservative(scale=0.5, duration=30.0, reason="lb")
        bed.sim.run(until=bed.sim.now + 2.0)
        scaled = agent.learned_window_for(key)
        assert scaled == 50

    def test_advisory_scales_after_clamping(self):
        """The advisory scales the *clamped* window (module doc contract).

        The raw combined window here is far above ``c_max``; scaling
        before clamping would leave the installed route pinned at
        ``c_max``, making the advisory a no-op exactly when an operator
        most wants conservatism.
        """
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=1_000_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        agent.advise_conservative(scale=0.5, duration=30.0, reason="drill")
        bed.sim.run(until=bed.sim.now + 1.0)
        route = bed.server.ip.route_get(bed.client.address)
        assert route is not None
        assert route.initcwnd == agent.config.c_max // 2
        assert route.initcwnd < agent.config.c_max

    def test_advisory_expiry_restores_windows(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=1_000_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        agent.advise_conservative(scale=0.5, duration=1.0)
        bed.sim.run(until=bed.sim.now + 3.0)
        key = Prefix.host(bed.client.address)
        assert agent.learned_window_for(key) == 100
