"""Edge-case behaviour of the TCP state machine."""

import pytest

from repro.tcp.constants import TcpConfig
from repro.tcp.socket import TcpState
from repro.testing import TwoHostTestbed, request_response

RTT = 0.100


class TestSimultaneousAndOddCloses:
    def test_simultaneous_close(self, testbed):
        sock = testbed.client.connect(testbed.server.address, 80)
        testbed.sim.run(until=1.0)
        server_sock = testbed.server.sockets()[0]
        # Both sides close within the same instant.
        sock.close()
        server_sock.close()
        testbed.sim.run(until=3.0)
        assert sock.state is TcpState.CLOSED
        assert server_sock.state is TcpState.CLOSED

    def test_close_is_idempotent(self, testbed):
        sock = testbed.client.connect(testbed.server.address, 80)
        testbed.sim.run(until=1.0)
        sock.close()
        sock.close()  # second close must not emit a second FIN
        testbed.sim.run(until=2.0)
        # Half-close: our FIN is acked, the peer has not closed yet.
        assert sock.state is TcpState.FIN_WAIT_2
        server_sock = testbed.server.sockets()[0]
        server_sock.close()
        testbed.sim.run(until=3.0)
        assert sock.state is TcpState.CLOSED
        assert server_sock.state is TcpState.CLOSED

    def test_abort_after_close_is_noop(self, testbed):
        sock = testbed.client.connect(testbed.server.address, 80)
        testbed.sim.run(until=1.0)
        sock.close()
        testbed.sim.run(until=2.0)
        sock.abort()
        assert sock.state is TcpState.CLOSED

    def test_vanish_notifies_owner(self, testbed):
        closed = []
        sock = testbed.client.connect(
            testbed.server.address, 80, on_closed=lambda s: closed.append(s)
        )
        testbed.sim.run(until=1.0)
        sock.vanish()
        assert closed == [sock]

    def test_close_during_handshake_leaves_no_orphan(self, testbed):
        sock = testbed.client.connect(testbed.server.address, 80)
        sock.close()  # SYN_SENT
        testbed.sim.run(until=5.0)
        assert len(testbed.client.sockets()) == 0


class TestDuplicateAndStalePackets:
    def test_duplicate_syn_is_reacknowledged(self, testbed):
        """A retransmitted SYN against an established server socket must
        not create a second connection."""
        from repro.net.packet import Packet
        from repro.tcp.wire import Segment

        sock = testbed.client.connect(testbed.server.address, 80)
        testbed.sim.run(until=1.0)
        assert len(testbed.server.sockets()) == 1
        dup_syn = Segment(
            src_port=sock.local_port,
            dst_port=80,
            seq=0,
            ack=0,
            syn=True,
            rwnd_bytes=29200,
        )
        testbed.network.send(
            Packet(testbed.client.address, testbed.server.address, 40, dup_syn)
        )
        testbed.sim.run(until=2.0)
        assert len(testbed.server.sockets()) == 1
        assert sock.is_established

    def test_stale_ack_beyond_snd_nxt_ignored(self, testbed):
        from repro.net.packet import Packet
        from repro.tcp.wire import Segment

        sock = testbed.client.connect(testbed.server.address, 80)
        testbed.sim.run(until=1.0)
        crazy_ack = Segment(
            src_port=80,
            dst_port=sock.local_port,
            seq=1,
            ack=10_000_000,
            is_ack=True,
            rwnd_bytes=29200,
        )
        testbed.network.send(
            Packet(testbed.server.address, testbed.client.address, 40, crazy_ack)
        )
        testbed.sim.run(until=2.0)
        assert sock.is_established
        assert sock.bytes_unacked == 0

    def test_retransmitted_data_does_not_duplicate_message(self):
        """Duplicate in-order data (a spurious retransmission) must not
        re-deliver the application message."""
        from repro.net.loss import LossModel

        class DuplicateEverything(LossModel):
            # Never drops; we emulate dup delivery via retransmission by
            # delaying ACKs instead: simply use a high-latency ACK path so
            # the sender retransmits via RTO while data actually arrived.
            def should_drop(self, rng):
                return False

            def clone(self):
                return DuplicateEverything()

        bed = TwoHostTestbed(rtt=0.100)
        bed.serve_echo()
        # Drop the first response ACK so the server RTOs and re-sends
        # data the client already has.
        dropped = {"count": 0}

        class DropFirstAck(LossModel):
            def should_drop(self, rng):
                dropped["count"] += 1
                return dropped["count"] in (3, 4)

            def clone(self):
                return self

        bed.trunk.forward._loss = DropFirstAck()
        result = request_response(bed, response_bytes=3000, deadline=30.0)
        assert result.completed
        assert result.socket.messages_received == 1


class TestReceiveWindowDynamics:
    def test_advertised_window_grows_with_delivery(self):
        config = TcpConfig(default_initrwnd=12)
        bed = TwoHostTestbed(rtt=RTT, client_config=config, server_config=config)
        bed.serve_echo()
        result = request_response(bed, response_bytes=300_000, deadline=30.0)
        assert result.completed
        # After delivering 300 KB the client advertises far more than the
        # initial 12 segments.
        assert result.socket._adv_wnd_bytes > 12 * 1460 * 2

    def test_rmem_max_caps_window_growth(self):
        config = TcpConfig(default_initrwnd=12, rmem_max_bytes=64 * 1024)
        bed = TwoHostTestbed(rtt=RTT, client_config=config, server_config=config)
        bed.serve_echo()
        result = request_response(bed, response_bytes=500_000, deadline=60.0)
        assert result.completed
        assert result.socket._adv_wnd_bytes <= 64 * 1024

    def test_tiny_receive_window_throttles_sender(self):
        small = TcpConfig(default_initrwnd=2, rmem_max_bytes=4 * 1460)
        big = TcpConfig(default_initrwnd=300)
        bed = TwoHostTestbed(rtt=RTT, client_config=small, server_config=big)
        bed.serve_echo()
        throttled = request_response(bed, response_bytes=50_000, deadline=60.0)
        assert throttled.completed

        roomy_bed = TwoHostTestbed(rtt=RTT, client_config=big, server_config=big)
        roomy_bed.serve_echo()
        roomy = request_response(roomy_bed, response_bytes=50_000, deadline=60.0)
        assert roomy.total_time < throttled.total_time


class TestIdleRestartInteractions:
    def test_restart_does_not_fire_mid_transfer(self):
        """Continuous transfers never trigger the idle restart."""
        config = TcpConfig(default_initrwnd=300, slow_start_after_idle=True)
        bed = TwoHostTestbed(rtt=RTT, client_config=config, server_config=config)
        bed.serve_echo()
        request_response(bed, response_bytes=2_000_000, deadline=60.0)
        sender = bed.server.sockets()[0]
        # The window reflects uninterrupted growth, not a restart at 10.
        assert sender.cc.cwnd_segments > 100

    def test_restart_preserves_ssthresh(self):
        """The idle restart collapses cwnd but keeps ssthresh, so regrowth
        is slow-start up to the old operating point."""
        config = TcpConfig(default_initrwnd=300, slow_start_after_idle=True)
        bed = TwoHostTestbed(rtt=RTT, client_config=config, server_config=config)
        bed.serve_echo()
        first = request_response(bed, response_bytes=1_000_000, deadline=60.0)
        bed.sim.run(until=bed.sim.now + 10.0)
        server_sock = bed.server.sockets()[0]
        ssthresh_before = server_sock.cc.ssthresh
        first.socket.send_message(("get", 50_000), 200)
        bed.sim.run(until=bed.sim.now + 5.0)
        assert server_sock.cc.ssthresh == ssthresh_before


@pytest.fixture
def testbed():
    bed = TwoHostTestbed(rtt=RTT)
    bed.serve_echo()
    return bed
