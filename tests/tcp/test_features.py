"""Tests for optional TCP features: delayed ACKs, slow-start-after-idle,
server close-on-FIN."""

import pytest

from repro.tcp import TcpConfig
from repro.testing import TwoHostTestbed, request_response

RTT = 0.100


class TestDelayedAck:
    def make_bed(self, delayed: bool) -> TwoHostTestbed:
        config = TcpConfig(delayed_ack=delayed, default_initrwnd=300)
        bed = TwoHostTestbed(rtt=RTT, client_config=config, server_config=config)
        bed.serve_echo()
        return bed

    def test_transfer_completes_with_delayed_acks(self):
        bed = self.make_bed(delayed=True)
        result = request_response(bed, response_bytes=100_000)
        assert result.completed
        assert result.socket.bytes_received == 100_000

    def test_delayed_acks_send_fewer_acks(self):
        eager = self.make_bed(delayed=False)
        request_response(eager, response_bytes=200_000)
        eager_acks = eager.client.sockets()[0].segments_sent

        lazy = self.make_bed(delayed=True)
        request_response(lazy, response_bytes=200_000)
        lazy_acks = lazy.client.sockets()[0].segments_sent
        assert lazy_acks < eager_acks

    def test_single_segment_acked_via_timer(self):
        """One lone data segment still gets acknowledged (40 ms timer)."""
        bed = self.make_bed(delayed=True)
        result = request_response(bed, response_bytes=500)
        assert result.completed
        # The server's data must be acked eventually or it would RTO.
        bed.sim.run(until=bed.sim.now + 2.0)
        server_sock = bed.server.sockets()[0]
        assert server_sock.bytes_unacked == 0
        assert server_sock.rtos_fired == 0


class TestSlowStartAfterIdle:
    def run_second_transfer(self, idle_restart: bool) -> float:
        config = TcpConfig(slow_start_after_idle=idle_restart, default_initrwnd=300)
        bed = TwoHostTestbed(rtt=RTT, client_config=config, server_config=config)
        bed.serve_echo()
        # First transfer grows the server window far beyond IW10.
        first = request_response(bed, response_bytes=1_000_000)
        assert first.completed
        # Idle far longer than the RTO, then fetch again on the same
        # connection.
        bed.sim.run(until=bed.sim.now + 30.0)
        times = []
        first.socket.send_message(("get", 100_000), 200)
        first.socket.on_message = lambda s, payload, size: times.append(
            bed.sim.now
        )
        start = bed.sim.now
        bed.sim.run(until=bed.sim.now + 10.0)
        assert times, "second transfer did not complete"
        return times[0] - start

    def test_idle_restart_collapses_window(self):
        with_restart = self.run_second_transfer(idle_restart=True)
        without_restart = self.run_second_transfer(idle_restart=False)
        # With RFC 2861 restart the 100 KB needs slow-start rounds again;
        # without it the grown window covers it in one round.
        assert without_restart < with_restart
        assert with_restart == pytest.approx(3 * RTT, rel=0.15)
        assert without_restart == pytest.approx(RTT, rel=0.15)

    def test_restart_uses_route_initcwnd(self):
        """The restart window is the *route-resolved* initial window, so
        a Riptide-installed initcwnd also accelerates idle restarts."""
        config = TcpConfig(slow_start_after_idle=True, default_initrwnd=300)
        bed = TwoHostTestbed(rtt=RTT, client_config=config, server_config=config)
        bed.serve_echo()
        bed.server.ip.route_replace("10.0.0.0/24", initcwnd=100)
        first = request_response(bed, response_bytes=1_000_000)
        bed.sim.run(until=bed.sim.now + 30.0)
        times = []
        first.socket.on_message = lambda s, payload, size: times.append(bed.sim.now)
        start = bed.sim.now
        first.socket.send_message(("get", 100_000), 200)
        bed.sim.run(until=bed.sim.now + 10.0)
        # Restarting at initcwnd=100 covers 100 KB in a single round.
        assert times[0] - start == pytest.approx(RTT, rel=0.15)


class TestCloseOnPeerFin:
    def test_server_socket_closes_after_client_fin(self):
        bed = TwoHostTestbed(rtt=RTT)
        from repro.cdn.transfer import TransferClient, TransferServer

        server_host = bed.server
        TransferServer(server_host)
        client = TransferClient(bed.client)
        client.fetch(server_host.address, 10_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        assert server_host.socket_count() == 1
        client.close_idle_connections()
        bed.sim.run(until=bed.sim.now + 2.0)
        assert server_host.socket_count() == 0
        assert bed.client.socket_count() == 0

    def test_flag_defaults_off(self):
        bed = TwoHostTestbed(rtt=RTT)
        bed.serve_echo()
        sock = bed.client.connect(bed.server.address, 80)
        bed.sim.run(until=1.0)
        server_sock = bed.server.sockets()[0]
        assert not server_sock.close_on_peer_fin
        sock.close()
        bed.sim.run(until=2.0)
        # Without the flag the server lingers in CLOSE_WAIT.
        from repro.tcp import TcpState

        assert server_sock.state is TcpState.CLOSE_WAIT
