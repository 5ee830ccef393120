"""Tests for the kernel-mode Riptide variant (Section V)."""

import pytest

from repro.core.agent import RiptideAgent
from repro.core.config import RiptideConfig
from repro.core.kernel_mode import KernelModeAgent
from repro.net.addresses import Prefix
from repro.tcp.constants import TcpConfig
from repro.testing import TwoHostTestbed, request_response


def make_testbed():
    bed = TwoHostTestbed(
        rtt=0.080,
        client_config=TcpConfig(default_initrwnd=300),
        server_config=TcpConfig(default_initrwnd=300),
    )
    bed.serve_echo()
    return bed


class TestKernelModeLearning:
    def test_learns_and_applies_without_routes(self):
        bed = make_testbed()
        agent = KernelModeAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=500_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        # The window applies through the hook...
        assert bed.server.initcwnd_for(bed.client.address) > 10
        # ...while the route table never sees a single command.
        assert len(bed.server.route_table) == 0
        assert bed.server.ip.commands_issued == 0

    def test_next_connection_jump_started(self):
        bed = make_testbed()
        agent = KernelModeAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        cold = request_response(bed, response_bytes=300_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        for sock in list(bed.client.sockets()):
            sock.close()
        bed.sim.run(until=bed.sim.now + 1.0)
        warm = request_response(bed, response_bytes=300_000)
        assert warm.total_time < cold.total_time

    def test_equivalent_learning_to_user_space(self):
        """Both variants run the same Algorithm 1 and learn the same value."""
        def learned_with(agent_cls):
            bed = make_testbed()
            agent = agent_cls(bed.server, RiptideConfig(update_interval=0.5))
            agent.start()
            request_response(bed, response_bytes=500_000)
            bed.sim.run(until=bed.sim.now + 2.0)
            return agent.learned_window_for(Prefix.host(bed.client.address))

        assert learned_with(KernelModeAgent) == learned_with(RiptideAgent)

    def test_ttl_expiry_restores_default(self):
        bed = make_testbed()
        agent = KernelModeAgent(
            bed.server, RiptideConfig(update_interval=0.5, ttl=3.0)
        )
        agent.start()
        request_response(bed, response_bytes=300_000)
        bed.sim.run(until=bed.sim.now + 1.0)
        assert bed.server.initcwnd_for(bed.client.address) > 10
        for sock in list(bed.client.sockets()) + list(bed.server.sockets()):
            sock.abort()
        bed.sim.run(until=bed.sim.now + 5.0)
        assert bed.server.initcwnd_for(bed.client.address) == 10


class TestHookLifecycle:
    def test_stop_releases_hook(self):
        bed = make_testbed()
        agent = KernelModeAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        assert bed.server.initcwnd_hook is not None
        agent.stop()
        assert bed.server.initcwnd_hook is None

    def test_stop_keeping_windows_reports_none_in_effect(self):
        bed = make_testbed()
        agent = KernelModeAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=500_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        key = Prefix.host(bed.client.address)
        learned = agent.learned_window_for(key)
        assert learned > 10 and agent.installed_window(key) == learned
        agent.stop(remove_routes=False)
        # The hook is released: a new connection gets the kernel default,
        # and the agent must not claim its kept window is in effect.
        assert bed.server.initcwnd_with_source(bed.client.address) == (10, "default")
        assert agent.installed_window(key) is None
        # A restart reclaims the hook with the windows it kept.
        agent.start()
        assert agent.installed_window(key) == learned
        assert bed.server.initcwnd_with_source(bed.client.address) == (learned, "hook")

    def test_double_agent_rejected(self):
        bed = make_testbed()
        first = KernelModeAgent(bed.server, RiptideConfig())
        second = KernelModeAgent(bed.server, RiptideConfig())
        first.start()
        with pytest.raises(RuntimeError, match="already has an initcwnd hook"):
            second.start()

    def test_restart_same_agent_allowed(self):
        bed = make_testbed()
        agent = KernelModeAgent(bed.server, RiptideConfig())
        agent.start()
        agent.stop()
        agent.start()
        assert agent.running

    def test_hook_miss_falls_through_to_routes(self):
        bed = make_testbed()
        agent = KernelModeAgent(bed.server, RiptideConfig())
        agent.start()
        # No learning yet; a manually installed route still applies.
        bed.server.ip.route_replace("10.0.0.0/24", initcwnd=33)
        assert bed.server.initcwnd_for(bed.client.address) == 33
