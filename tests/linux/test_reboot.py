"""Tests for the reboot failure case (Section II-A).

"Simple procedures that close all connections to a node (e.g., rebooting
to apply updates) lose not only local connection information, but
eliminate all information about the node on remote machines."
"""

import pytest

from repro.core.agent import RiptideAgent
from repro.core.config import RiptideConfig
from repro.net.addresses import Prefix
from repro.tcp.constants import TcpConfig
from repro.tcp.socket import TcpState
from repro.testing import TwoHostTestbed, request_response


def make_testbed():
    bed = TwoHostTestbed(
        rtt=0.080,
        client_config=TcpConfig(default_initrwnd=300),
        server_config=TcpConfig(default_initrwnd=300),
    )
    bed.serve_echo()
    return bed


class TestReboot:
    def test_reboot_clears_sockets_and_routes(self):
        bed = make_testbed()
        request_response(bed, response_bytes=50_000)
        bed.server.ip.route_replace("10.0.0.0/24", initcwnd=50)
        assert len(bed.server.sockets()) == 1
        bed.server.reboot()
        assert len(bed.server.sockets()) == 0
        assert len(bed.server.route_table) == 0
        assert bed.server.reboots == 1

    def test_listeners_survive_reboot(self):
        bed = make_testbed()
        bed.server.reboot()
        # Services restart with the machine: new connections succeed.
        result = request_response(bed, response_bytes=10_000)
        assert result.completed

    def test_peer_that_sends_is_reset(self):
        """The rebooted host has no socket for the client's request, so it
        answers with a RST: the client learns of the death in one RTT."""
        bed = make_testbed()
        errors = []
        sock = bed.client.connect(
            bed.server.address, 80, on_error=lambda s, reason: errors.append(reason)
        )
        bed.sim.run(until=1.0)
        bed.server.reboot()
        sock.send_message(("get", 10_000), 200)
        bed.sim.run(until=bed.sim.now + 1.5 * 0.080)
        assert sock.state is TcpState.CLOSED
        assert errors == ["connection reset by peer"]

    def test_peer_discovers_death_via_timers(self):
        """Where nothing reaches the rebooted host (its trunk is down too),
        only the client's own timers can tell it."""
        bed = make_testbed()
        errors = []
        sock = bed.client.connect(
            bed.server.address, 80, on_error=lambda s, reason: errors.append(reason)
        )
        bed.sim.run(until=1.0)
        bed.server.reboot()
        bed.trunk.set_down()
        # The client sends into the void; retransmissions back off to the
        # 120 s RTO cap before the tcp_retries2-style limit gives up.
        sock.send_message(("get", 10_000), 200)
        bed.sim.run(until=bed.sim.now + 2000.0)
        assert sock.state is TcpState.CLOSED
        assert errors and "timeout" in errors[0]

    def test_riptide_state_lost_and_relearned(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=500_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        key = Prefix.host(bed.client.address)
        assert agent.learned_window_for(key) > 10

        bed.server.reboot()
        # Operational reality: the agent restarts with the machine.
        agent.stop(remove_routes=False)
        fresh_agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        fresh_agent.start()
        assert fresh_agent.learned_window_for(key) is None
        assert bed.server.initcwnd_for(bed.client.address) == 10

        # New traffic re-teaches the path.
        request_response(bed, response_bytes=500_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        assert fresh_agent.learned_window_for(key) > 10

    def test_remote_entries_about_rebooted_node_expire(self):
        """The *client's* agent loses what it knew about the rebooted
        server once its connections die and the TTL lapses."""
        bed = make_testbed()
        client_agent = RiptideAgent(
            bed.client, RiptideConfig(update_interval=0.5, ttl=3.0)
        )
        client_agent.start()
        request_response(bed, response_bytes=200_000)
        bed.sim.run(until=bed.sim.now + 1.0)
        key = Prefix.host(bed.server.address)
        assert client_agent.learned_window_for(key) is not None

        bed.server.reboot()
        # The client's socket lingers established (nothing in flight), so
        # close it as an application eventually would, then let TTL lapse.
        for sock in list(bed.client.sockets()):
            sock.vanish()
        bed.sim.run(until=bed.sim.now + 6.0)
        assert client_agent.learned_window_for(key) is None
        assert bed.client.initcwnd_for(bed.server.address) == 10


class TestSocketDemuxIndex:
    """The integer-keyed demux table is dropped with the sockets."""

    def test_reboot_leaves_no_stale_socket_reachable(self):
        from repro.tcp.errors import TcpError
        from repro.tcp.wire import Segment

        bed = make_testbed()
        client = bed.client.address
        server = bed.server.address
        syn = Segment(client, server, src_port=40000, dst_port=80, seq=0, ack=0, syn=True)
        bed.server.create_server_socket(80, client, 40000).accept_syn(syn)
        with pytest.raises(TcpError, match="socket collision"):
            bed.server.create_server_socket(80, client, 40000)
        stray = Segment(client, server, src_port=40000, dst_port=80, seq=1, ack=1, is_ack=True)
        bed.server.reboot()
        bed.server.receive_packet(stray)
        assert bed.server.packets_unmatched == 1

        # The same (port, peer, peer port) registers again and is the one
        # the demux now finds.
        fresh = bed.server.create_server_socket(80, client, 40000)
        fresh.accept_syn(syn)
        bed.server.receive_packet(stray)
        assert fresh.segments_received == 1
        assert bed.server.packets_unmatched == 1

    def test_connections_work_on_both_sides_of_a_reboot(self):
        bed = make_testbed()
        assert request_response(bed, response_bytes=20_000).completed
        bed.server.reboot()
        bed.client.reboot()
        result = request_response(bed, response_bytes=20_000)
        assert result.completed
        assert len(bed.server.sockets()) == 1
