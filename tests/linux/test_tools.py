"""Unit tests for the ip/ss tool façades, sysctl and the host."""

import dataclasses

import pytest

from repro.linux.host import Host
from repro.net.addresses import IPv4Address, Prefix
from repro.tcp.constants import DEFAULT_INIT_CWND, TcpConfig
from repro.testing import TwoHostTestbed, request_response


@pytest.fixture
def host(testbed):
    return testbed.client


class TestIpRouteTool:
    def test_route_add_paper_example(self, host):
        """Figure 8: ip route add 10.0.0.127 ... initcwnd 80."""
        host.ip.route_add("10.0.0.127", initcwnd=80)
        route = host.ip.route_get("10.0.0.127")
        assert route is not None
        assert route.initcwnd == 80
        assert route.prefix.length == 32

    def test_route_add_duplicate_rejected(self, host):
        host.ip.route_add("10.0.0.127", initcwnd=80)
        with pytest.raises(KeyError):
            host.ip.route_add("10.0.0.127", initcwnd=90)

    def test_route_replace_upserts(self, host):
        host.ip.route_replace("10.0.0.127", initcwnd=80)
        host.ip.route_replace("10.0.0.127", initcwnd=95)
        assert host.ip.route_get("10.0.0.127").initcwnd == 95

    def test_route_del(self, host):
        host.ip.route_replace("10.0.0.127", initcwnd=80)
        host.ip.route_del("10.0.0.127")
        assert host.ip.route_get("10.0.0.127") is None

    def test_route_del_missing_raises(self, host):
        with pytest.raises(KeyError):
            host.ip.route_del("10.0.0.127")

    def test_route_show_renders_lines(self, host):
        host.ip.route_replace("10.1.0.0/24", initcwnd=60, initrwnd=120)
        lines = host.ip.route_show()
        assert any("initcwnd 60" in line and "initrwnd 120" in line for line in lines)

    def test_accepts_prefix_objects(self, host):
        host.ip.route_replace(Prefix.parse("10.1.0.0/24"), initcwnd=33)
        assert host.initcwnd_for(IPv4Address("10.1.0.9")) == 33

    def test_accepts_address_objects(self, host):
        host.ip.route_replace(IPv4Address("10.1.0.9"), initcwnd=44)
        assert host.initcwnd_for(IPv4Address("10.1.0.9")) == 44
        assert host.initcwnd_for(IPv4Address("10.1.0.10")) == 10

    def test_commands_counted(self, host):
        host.ip.route_replace("10.0.0.127", initcwnd=80)
        host.ip.route_del("10.0.0.127")
        assert host.ip.commands_issued == 2


class TestSsTool:
    def test_reports_established_connections(self, testbed):
        request_response(testbed, response_bytes=5000)
        infos = testbed.client.ss.tcp_info()
        assert len(infos) == 1
        assert infos[0].remote_address == testbed.server.address
        assert infos[0].cwnd >= 1

    def test_created_after_filter(self, testbed):
        request_response(testbed, response_bytes=5000)
        now = testbed.sim.now
        assert testbed.client.ss.tcp_info(created_after=now + 1) == []
        assert len(testbed.client.ss.tcp_info(created_after=0.0)) == 1

    def test_cwnd_reflects_growth(self, testbed):
        request_response(testbed, response_bytes=200_000)
        server_info = testbed.server.ss.tcp_info()
        assert server_info[0].cwnd > 10  # slow start grew past IW10

    def test_stale_poll_serves_its_own_filters(self, testbed):
        """A wedged ``ss`` re-serves the last good snapshot taken under the
        *same* ``created_after`` — not whatever another caller polled last
        (an agent's unfiltered poll after a sampler's ``created_after`` poll
        used to be handed the sampler's snapshot)."""
        request_response(testbed, response_bytes=5000)
        ss = testbed.server.ss
        everything = ss.tcp_info()
        assert len(everything) == 1
        later = testbed.sim.now + 1.0
        assert ss.tcp_info(created_after=later) == []
        ss.set_fault("stale")
        assert ss.tcp_info(created_after=later) == []
        assert ss.tcp_info() == everything
        assert ss.tcp_info() is not everything  # a copy, as before
        # A filter never polled successfully has nothing to re-serve.
        assert ss.tcp_info(created_after=0.0) == []
        assert ss.faulted_polls == 4

    def test_poll_counter(self, testbed):
        testbed.client.ss.tcp_info()
        testbed.client.ss.tcp_info()
        assert testbed.client.ss.polls == 2


class TestSysctl:
    """The host-wide ``TcpConfig``, the simulated sysctl surface."""

    def test_defaults_match_linux(self):
        config = TcpConfig()
        assert DEFAULT_INIT_CWND == 10
        assert config.congestion_control == "cubic"

    def test_set_produces_new_config(self):
        config = TcpConfig()
        raised = dataclasses.replace(config, default_initrwnd=256)
        assert raised.default_initrwnd == 256
        assert config.default_initrwnd == 20

    def test_invalid_value_rejected_via_config_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TcpConfig(), default_initrwnd=0)


class TestHost:
    def test_ephemeral_ports_unique(self, testbed):
        first = testbed.client.connect(testbed.server.address, 80)
        second = testbed.client.connect(testbed.server.address, 80)
        assert first.local_port != second.local_port

    def test_initcwnd_for_uses_config_default(self, testbed):
        assert testbed.client.initcwnd_for(testbed.server.address) == 10

    def test_initrwnd_route_override(self, testbed):
        testbed.client.ip.route_replace("10.1.0.0/24", initrwnd=200)
        assert testbed.client.initrwnd_for(testbed.server.address) == 200

    def test_unmatched_packets_counted(self, testbed):
        from tests.datagram import Datagram

        testbed.network.send(
            Datagram(testbed.client.address, testbed.server.address, 100, tag="junk")
        )
        testbed.sim.run()
        assert testbed.server.packets_unmatched == 1

    def test_custom_config_respected(self):
        bed = TwoHostTestbed(client_config=TcpConfig(default_initrwnd=42))
        assert bed.client.initrwnd_for(bed.server.address) == 42
