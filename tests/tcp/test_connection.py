"""Integration tests for the TCP socket over a lossless fabric."""

import pytest

from repro.tcp.constants import TcpConfig
from repro.tcp.errors import TcpError, TcpStateError
from repro.tcp.socket import TcpState
from repro.testing import TwoHostTestbed, request_response

RTT = 0.100
MSS = 1460


class TestHandshake:
    def test_connect_establishes_both_sides(self, testbed):
        established = []
        sock = testbed.client.connect(
            testbed.server.address, 80, on_established=lambda s: established.append(s)
        )
        testbed.sim.run(until=1.0)
        assert sock.is_established
        assert established == [sock]
        server_socks = [s for s in testbed.server.sockets() if s.local_port == 80]
        assert len(server_socks) == 1
        assert server_socks[0].is_established

    def test_handshake_costs_one_rtt(self, testbed):
        when = []
        testbed.client.connect(
            testbed.server.address, 80, on_established=lambda s: when.append(testbed.sim.now)
        )
        testbed.sim.run(until=1.0)
        assert when[0] == pytest.approx(RTT, rel=0.05)

    def test_client_flag_set_correctly(self, testbed):
        sock = testbed.client.connect(testbed.server.address, 80)
        testbed.sim.run(until=1.0)
        assert sock.is_client
        server_sock = testbed.server.sockets()[0]
        assert not server_sock.is_client

    def test_syn_to_closed_port_is_reset(self):
        """RFC 793: the server's host answers with RST|ACK, within one RTT."""
        bed = TwoHostTestbed(rtt=RTT)
        errors = []
        sock = bed.client.connect(
            bed.server.address, 9999, on_error=lambda s, reason: errors.append(reason)
        )
        bed.sim.run(until=1.5 * RTT)
        assert sock.state is TcpState.CLOSED
        assert errors == ["connection reset by peer"]
        assert (bed.server.packets_unmatched, bed.client.packets_unmatched) == (1, 0)

    def test_double_connect_rejected(self, testbed):
        sock = testbed.client.connect(testbed.server.address, 80)
        testbed.sim.run(until=1.0)
        with pytest.raises(TcpStateError):
            sock.connect()

    def test_duplicate_listen_rejected(self, testbed):
        with pytest.raises(TcpError):
            testbed.server.listen(80)


class TestTransfer:
    def test_small_message_round_trip(self, testbed):
        result = request_response(testbed, response_bytes=1000)
        assert result.completed
        # Handshake (1 RTT) + request/response (1 RTT) plus serialization.
        assert result.total_time == pytest.approx(2 * RTT, rel=0.1)

    def test_100kb_takes_four_data_rounds_at_iw10(self, testbed):
        result = request_response(testbed, response_bytes=100_000)
        # 69 segments from IW10 need slow-start rounds of 10/20/40/69.
        # Handshake = 1 RTT, request + first wave = 1 RTT, then 2 more
        # waves: 4 RTTs in total.
        assert result.total_time == pytest.approx(4 * RTT, rel=0.1)

    def test_large_initcwnd_transfers_in_one_round(self):
        bed = TwoHostTestbed(rtt=RTT, server_config=TcpConfig(default_initrwnd=256))
        bed.serve_echo()
        bed.server.ip.route_replace("10.0.0.0/24", initcwnd=100)
        bed.client.config = TcpConfig(default_initrwnd=256)
        result = request_response(bed, response_bytes=100_000)
        assert result.total_time == pytest.approx(2 * RTT, rel=0.1)

    def test_multiple_messages_on_one_connection(self, testbed):
        received = []
        sock = testbed.client.connect(
            testbed.server.address,
            80,
            on_established=lambda s: s.send_message(("get", 5000), 200),
            on_message=lambda s, payload, size: received.append(size),
        )
        testbed.sim.run(until=1.0)
        sock.send_message(("get", 9000), 200)
        testbed.sim.run(until=2.0)
        assert received == [5000, 9000]

    def test_reused_connection_skips_handshake(self, testbed):
        completions = []
        sock = testbed.client.connect(
            testbed.server.address,
            80,
            on_established=lambda s: s.send_message(("get", 1000), 200),
            on_message=lambda s, payload, size: completions.append(testbed.sim.now),
        )
        testbed.sim.run(until=1.0)
        start = testbed.sim.now
        sock.send_message(("get", 1000), 200)
        testbed.sim.run(until=2.0)
        assert completions[1] - start == pytest.approx(RTT, rel=0.1)

    def test_bidirectional_transfer(self, testbed):
        """Both sides can stream data simultaneously."""
        client_got, server_got = [], []

        def server_on_message(sock, payload, size):
            server_got.append(size)
            sock.send_message("reply", 30_000)

        testbed.server.listen(
            8080, on_accept=lambda s: setattr(s, "on_message", server_on_message)
        )
        testbed.client.connect(
            testbed.server.address,
            8080,
            on_established=lambda s: s.send_message("req", 30_000),
            on_message=lambda s, payload, size: client_got.append(size),
        )
        testbed.sim.run(until=5.0)
        assert server_got == [30_000]
        assert client_got == [30_000]

    def test_message_sizes_validated(self, testbed):
        sock = testbed.client.connect(testbed.server.address, 80)
        testbed.sim.run(until=1.0)
        with pytest.raises(ValueError):
            sock.send_message("bad", 0)

    def test_byte_counters_track_transfer(self, testbed):
        result = request_response(testbed, response_bytes=50_000)
        assert result.socket.bytes_received == 50_000
        server_sock = testbed.server.sockets()[0]
        assert server_sock.bytes_acked == 50_000

    def test_transfer_exact_window_boundary(self, testbed):
        # Exactly 10 segments: fits the default initial window.
        result = request_response(testbed, response_bytes=10 * MSS)
        assert result.total_time == pytest.approx(2 * RTT, rel=0.1)

    def test_transfer_one_byte_over_window(self, testbed):
        bed_result = request_response(testbed, response_bytes=10 * MSS + 1)
        assert bed_result.total_time == pytest.approx(3 * RTT, rel=0.1)


class TestInitialWindows:
    def test_route_initcwnd_applies_to_server_socket(self, testbed):
        testbed.server.ip.route_replace("10.0.0.0/24", initcwnd=77)
        request_response(testbed, response_bytes=1000)
        # The connection may have closed; check via the initcwnd recorded.
        socks = testbed.server.sockets()
        assert any(s.cc.initial_cwnd == 77 for s in socks)

    def test_default_initcwnd_without_route(self, testbed):
        sock = testbed.client.connect(testbed.server.address, 80)
        assert sock.cc.initial_cwnd == 10

    def test_more_specific_route_wins(self, testbed):
        testbed.server.ip.route_replace("10.0.0.0/24", initcwnd=50)
        testbed.server.ip.route_replace("10.0.0.1/32", initcwnd=90)
        assert testbed.server.initcwnd_for(testbed.client.address) == 90

    def test_initrwnd_limits_first_burst(self):
        """Section III-C: a large initcwnd is useless if the receiver's
        initial window cannot absorb the burst."""
        capped = TwoHostTestbed(
            rtt=RTT,
            client_config=TcpConfig(default_initrwnd=10),
            server_config=TcpConfig(default_initrwnd=10),
        )
        capped.serve_echo()
        capped.server.ip.route_replace("10.0.0.0/24", initcwnd=100)
        capped_result = request_response(capped, response_bytes=100_000)

        roomy = TwoHostTestbed(
            rtt=RTT,
            client_config=TcpConfig(default_initrwnd=256),
            server_config=TcpConfig(default_initrwnd=256),
        )
        roomy.serve_echo()
        roomy.server.ip.route_replace("10.0.0.0/24", initcwnd=100)
        roomy_result = request_response(roomy, response_bytes=100_000)

        assert roomy_result.total_time < capped_result.total_time


class TestClose:
    def test_orderly_close_tears_down_both_sides(self, testbed):
        closed = []
        sock = testbed.client.connect(
            testbed.server.address, 80, on_closed=lambda s: closed.append("client")
        )
        testbed.sim.run(until=1.0)
        server_sock = testbed.server.sockets()[0]
        sock.close()
        testbed.sim.run(until=2.0)
        server_sock.close()
        testbed.sim.run(until=3.0)
        assert sock.state is TcpState.CLOSED
        assert server_sock.state is TcpState.CLOSED
        assert len(testbed.client.sockets()) == 0
        assert len(testbed.server.sockets()) == 0

    def test_close_flushes_pending_data(self, testbed):
        received = []
        sock = testbed.client.connect(
            testbed.server.address,
            80,
            on_established=lambda s: s.send_message(("get", 40_000), 200),
            on_message=lambda s, payload, size: received.append(size),
        )
        testbed.sim.run(until=0.15)  # mid-transfer
        testbed.sim.run(until=5.0)
        assert received == [40_000]

    def test_send_after_close_rejected(self, testbed):
        sock = testbed.client.connect(testbed.server.address, 80)
        testbed.sim.run(until=1.0)
        sock.close()
        with pytest.raises(TcpStateError):
            sock.send_message("x", 100)

    def test_abort_resets_peer(self, testbed):
        errors = []
        sock = testbed.client.connect(testbed.server.address, 80)
        testbed.sim.run(until=1.0)
        server_sock = testbed.server.sockets()[0]
        server_sock.on_error = lambda s, reason: errors.append(reason)
        sock.abort()
        testbed.sim.run(until=2.0)
        assert sock.state is TcpState.CLOSED
        assert server_sock.state is TcpState.CLOSED
        assert errors and "reset" in errors[0]

    def test_close_before_establish(self, testbed):
        sock = testbed.client.connect(testbed.server.address, 80)
        sock.close()
        assert sock.state is TcpState.CLOSED

    def test_passive_close_states(self, testbed):
        sock = testbed.client.connect(testbed.server.address, 80)
        testbed.sim.run(until=1.0)
        server_sock = testbed.server.sockets()[0]
        sock.close()
        testbed.sim.run(until=1.2)
        assert server_sock.state in (TcpState.CLOSE_WAIT, TcpState.CLOSED)
