"""TCP behaviour under loss: fast retransmit, RTO, data integrity."""

import pytest

from repro.net import BernoulliLoss, GilbertElliottLoss
from repro.tcp import TcpConfig
from repro.testing import TwoHostTestbed, request_response

RTT = 0.100


def lossy_testbed(loss_probability: float, seed: int = 42) -> TwoHostTestbed:
    bed = TwoHostTestbed(
        rtt=RTT,
        loss_model=BernoulliLoss(loss_probability),
        seed=seed,
        client_config=TcpConfig(default_initrwnd=256),
        server_config=TcpConfig(default_initrwnd=256),
    )
    bed.serve_echo()
    return bed


class TestDataIntegrity:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_transfer_completes_despite_loss(self, seed):
        bed = lossy_testbed(0.02, seed=seed)
        result = request_response(bed, response_bytes=200_000, deadline=120.0)
        assert result.completed
        assert result.socket.bytes_received == 200_000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_transfer_completes_under_heavy_loss(self, seed):
        bed = lossy_testbed(0.10, seed=seed)
        result = request_response(bed, response_bytes=50_000, deadline=300.0)
        assert result.completed

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_transfer_completes_under_bursty_loss(self, seed):
        bed = TwoHostTestbed(
            rtt=RTT,
            loss_model=GilbertElliottLoss(0.01, 0.3, loss_good=0.001, loss_bad=0.3),
            seed=seed,
        )
        bed.serve_echo()
        result = request_response(bed, response_bytes=100_000, deadline=300.0)
        assert result.completed

    def test_loss_costs_time(self):
        clean = TwoHostTestbed(rtt=RTT)
        clean.serve_echo()
        clean_time = request_response(clean, response_bytes=200_000).total_time

        lossy_times = []
        for seed in range(5):
            bed = lossy_testbed(0.05, seed=seed)
            lossy_times.append(
                request_response(bed, response_bytes=200_000, deadline=300.0).total_time
            )
        assert min(lossy_times) >= clean_time
        assert sum(lossy_times) / len(lossy_times) > clean_time * 1.2


class TestRecoveryMechanics:
    def test_fast_retransmit_triggers_on_dupacks(self):
        bed = lossy_testbed(0.03, seed=7)
        request_response(bed, response_bytes=500_000, deadline=300.0)
        server_sock_list = bed.server.sockets()
        assert server_sock_list, "server socket should still be open"
        sender = server_sock_list[0]
        assert sender.fast_retransmits > 0

    def test_retransmissions_counted(self):
        bed = lossy_testbed(0.05, seed=9)
        request_response(bed, response_bytes=300_000, deadline=300.0)
        sender = bed.server.sockets()[0]
        assert sender.segments_retransmitted > 0

    def test_loss_reduces_final_cwnd(self):
        clean = TwoHostTestbed(rtt=RTT)
        clean.serve_echo()
        request_response(clean, response_bytes=500_000, deadline=300.0)
        clean_cwnd = clean.server.sockets()[0].cc.cwnd_segments

        bed = lossy_testbed(0.05, seed=11)
        request_response(bed, response_bytes=500_000, deadline=300.0)
        lossy_cwnd = bed.server.sockets()[0].cc.cwnd_segments
        assert lossy_cwnd < clean_cwnd

    def test_rto_fires_when_whole_window_lost(self):
        """Losing every packet of a flight leaves no dupacks: only the
        retransmission timer can recover."""
        from repro.net.loss import LossModel

        class DropRange(LossModel):
            """Deterministically drop packets ``start``..``end`` (1-based)."""

            def __init__(self, start: int, end: int) -> None:
                self.start, self.end = start, end
                self.count = 0

            def should_drop(self, rng) -> bool:
                self.count += 1
                return self.start <= self.count <= self.end

            def clone(self) -> "DropRange":
                return DropRange(self.start, self.end)

        bed = TwoHostTestbed(rtt=RTT)
        bed.serve_echo()
        # The reverse direction carries the response data.  Packet 1 is the
        # SYN-ACK; packets 2..11 are exactly the IW10 initial data flight —
        # losing all of it produces zero dupacks, forcing an RTO.
        bed.trunk.reverse._loss = DropRange(2, 11)
        result = request_response(bed, response_bytes=200_000, deadline=600.0)
        assert result.completed
        sender_stats = bed.server.sockets()[0]
        assert sender_stats.rtos_fired > 0

    def test_queue_overflow_recovered(self):
        """A burst past the trunk's default 1024-packet queue loses the
        tail; TCP must recover."""
        bed = TwoHostTestbed(
            rtt=RTT,
            bandwidth_bps=100e6,
            client_config=TcpConfig(default_initrwnd=1500),
            server_config=TcpConfig(default_initrwnd=1500),
        )
        bed.serve_echo()
        bed.server.ip.route_replace("10.0.0.0/24", initcwnd=1200)
        result = request_response(bed, response_bytes=2_000_000, deadline=300.0)
        assert result.completed
        assert bed.trunk.reverse.stats.packets_dropped_queue > 0


class TestHandshakeLoss:
    def test_lost_syn_retried(self):
        bed = TwoHostTestbed(
            rtt=RTT,
            loss_model=GilbertElliottLoss(1.0, 1.0, loss_good=1.0, loss_bad=0.0),
            seed=5,
        )
        # loss_good=1.0 then transitions: first packet (SYN) lost, then the
        # channel oscillates; eventually a retry gets through.
        bed.serve_echo()
        result = request_response(bed, response_bytes=1000, deadline=120.0)
        assert result.completed
        assert result.total_time > 1.0  # paid at least one SYN RTO
