"""Tests for selective acknowledgements (RFC 2018-style)."""

import random

import pytest

from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel
from repro.tcp import TcpConfig
from repro.testing import TwoHostTestbed, request_response

RTT = 0.100


class DropPackets(LossModel):
    """Deterministically drop a chosen set of packet ordinals (1-based)."""

    def __init__(self, ordinals: set[int]) -> None:
        self.ordinals = set(ordinals)
        self.count = 0

    def should_drop(self, rng) -> bool:
        self.count += 1
        return self.count in self.ordinals

    def clone(self) -> "DropPackets":
        return DropPackets(self.ordinals)


def sack_bed(sack: bool, reverse_drops: set[int] | None = None) -> TwoHostTestbed:
    config = TcpConfig(sack=sack, default_initrwnd=300)
    bed = TwoHostTestbed(rtt=RTT, client_config=config, server_config=config)
    bed.serve_echo()
    if reverse_drops:
        bed.trunk.reverse._loss = DropPackets(reverse_drops)
    return bed


class TestSackBlocks:
    def test_no_blocks_without_holes(self):
        bed = sack_bed(sack=True)
        result = request_response(bed, response_bytes=50_000)
        assert result.completed

    def test_transfer_completes_with_sack(self):
        bed = sack_bed(sack=True)
        result = request_response(bed, response_bytes=300_000)
        assert result.completed
        assert result.socket.bytes_received == 300_000

    def test_receiver_advertises_holes(self):
        # Drop one data packet mid-flight (reverse link carries data;
        # packet 1 is the SYN-ACK, packets 2.. are the response flight).
        bed = sack_bed(sack=True, reverse_drops={4})
        result = request_response(bed, response_bytes=100_000, deadline=30.0)
        assert result.completed
        # The sender saw SACK-carrying dupacks and recovered quickly.
        sender = bed.server.sockets()[0]
        assert sender.fast_retransmits >= 1
        assert sender.rtos_fired == 0


class TestSackRecovery:
    def multi_loss_run(self, sack: bool):
        """Drop two separated packets of the initial flight."""
        bed = sack_bed(sack=sack, reverse_drops={3, 7})
        result = request_response(bed, response_bytes=150_000, deadline=60.0)
        assert result.completed
        sender = bed.server.sockets()[0]
        return result.total_time, sender

    def test_multi_loss_recovers_without_rto_under_sack(self):
        time_sack, sender = self.multi_loss_run(sack=True)
        assert sender.rtos_fired == 0

    def test_sack_no_slower_than_newreno_on_multi_loss(self):
        time_sack, _ = self.multi_loss_run(sack=True)
        time_newreno, _ = self.multi_loss_run(sack=False)
        assert time_sack <= time_newreno + 1e-9

    def test_sack_retransmits_only_the_holes(self):
        _, sender = self.multi_loss_run(sack=True)
        # Exactly the two dropped data segments need retransmission.
        assert sender.segments_retransmitted == 2

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_loss_data_integrity_with_sack(self, seed):
        config = TcpConfig(sack=True, default_initrwnd=300)
        bed = TwoHostTestbed(
            rtt=RTT,
            loss_model=BernoulliLoss(0.03),
            seed=seed,
            client_config=config,
            server_config=config,
        )
        bed.serve_echo()
        result = request_response(bed, response_bytes=250_000, deadline=120.0)
        assert result.completed
        assert result.socket.bytes_received == 250_000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sack_reduces_time_under_loss(self, seed):
        def run(sack: bool) -> float:
            config = TcpConfig(sack=sack, default_initrwnd=300)
            bed = TwoHostTestbed(
                rtt=RTT,
                loss_model=BernoulliLoss(0.02),
                seed=seed,
                client_config=config,
                server_config=config,
            )
            bed.serve_echo()
            result = request_response(bed, response_bytes=400_000, deadline=300.0)
            assert result.completed
            return result.total_time

        # SACK should rarely lose; allow a small tolerance for seeds
        # where loss happens to hit the SACK run harder.
        assert run(True) <= run(False) * 1.25


class TestSackedBytesCounter:
    """The running pipe discount always equals a recount of the queue."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "loss",
        [BernoulliLoss(0.04), GilbertElliottLoss(0.02, 0.3, loss_bad=0.3)],
        ids=["bernoulli", "gilbert-elliott"],
    )
    def test_counter_equals_the_recount_at_every_stop(self, loss, seed):
        rng = random.Random(seed)
        config = TcpConfig(
            sack=True, default_initrwnd=300, delayed_ack=rng.random() < 0.5
        )
        bed = TwoHostTestbed(
            rtt=rng.uniform(0.01, 0.2),
            bandwidth_bps=rng.choice([10e6, 50e6, 1e9]),
            loss_model=loss,
            seed=seed,
            client_config=config,
            server_config=config,
        )
        queue_limit = rng.choice([24, 64, 1024])
        for link in (bed.trunk.forward, bed.trunk.reverse):
            link.queue_limit_packets = queue_limit
        bed.serve_echo()
        bed.server.ip.route_replace(
            TwoHostTestbed.CLIENT_ZONE, initcwnd=rng.choice([10, 46, 100])
        )
        size = rng.randrange(150_000, 600_000)
        received: list[int] = []
        client = bed.client.connect(
            bed.server.address,
            80,
            on_established=lambda sock: sock.send_message(("get", size), 200),
            on_message=lambda sock, payload, n: received.append(n),
        )
        largest = 0
        while not received and bed.sim.pending_events:
            bed.sim.run(max_events=50)
            for sock in (client, *bed.server.sockets()):
                recount = sum(
                    entry.end_seq - entry.seq
                    for entry in sock._rtx_queue
                    if entry.sacked
                )
                assert sock._sacked_bytes == recount
                largest = max(largest, recount)
        assert received == [size]
        assert largest > 0  # the cell did exercise selective acknowledgement


class TestSackWithRiptide:
    def test_learned_initcwnd_composes_with_sack(self):
        config = TcpConfig(sack=True, default_initrwnd=300)
        bed = TwoHostTestbed(rtt=RTT, client_config=config, server_config=config)
        bed.serve_echo()
        bed.server.ip.route_replace("10.0.0.0/24", initcwnd=100)
        result = request_response(bed, response_bytes=100_000)
        assert result.total_time == pytest.approx(2 * RTT, rel=0.1)
