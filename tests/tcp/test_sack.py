"""Tests for selective acknowledgements (RFC 2018-style)."""

import math
import random

import pytest

import repro.tcp.socket as socket_module
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel
from repro.tcp.constants import TcpConfig
from repro.tcp.wire import Segment
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


    def test_first_block_holds_the_segment_that_triggered_the_ack(self):
        """RFC 2018 §4: a segment that lands below the highest block is
        reported first, not after it."""
        bed = sack_bed(sack=True)
        client = bed.client.connect(bed.server.address, 80)
        bed.sim.run(until=1.0)
        sent: list[Segment] = []
        bed.client.send_packet = sent.append
        server = bed.server.sockets()[0]
        mss, base = client.config.mss, client._rcv_nxt
        for offset in (2, 6, 3):  # holes at 0-1 and 4-5: two blocks, then the lower grows
            seq = base + offset * mss
            client.handle_segment(Segment(
                bed.server.address, bed.client.address,
                server.local_port, client.local_port, seq, client._snd_nxt, mss,
                is_ack=True, rwnd_bytes=65535,
            ))
        assert sent[-1].sack_blocks == (
            (base + 2 * mss, base + 4 * mss), (base + 6 * mss, base + 7 * mss),
        )


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


def recount_scoreboard(sock) -> int:
    """Recount, entry by entry, what the socket keeps as ranges and edges:
    the SACKed ranges (on entry boundaries, inside the flight), the lost
    edge (below it: every entry RFC 6675's ``IsLost`` holds lost), HighRxt
    (below it: every unSACKed entry was resent) and SetPipe.  Returns the
    SACKed bytes."""
    una, nxt, mss = sock._snd_una, sock._snd_nxt, sock.config.mss
    ranges = list(sock._sacked)
    assert ranges == sorted(ranges)
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi < lo  # merged: disjoint, not even adjacent
    queue = list(sock._rtx_queue)
    edges = {entry.seq for entry in queue} | {entry.end_seq for entry in queue}
    assert all(una <= lo < hi <= nxt and lo in edges and hi in edges for lo, hi in ranges)
    sacked = [any(lo <= entry.seq < hi for lo, hi in ranges) for entry in queue]
    lost_edge, high_rxt = sock._lost_edge, sock._high_rxt
    pipe = 0
    for index, entry in enumerate(queue):
        size = entry.end_seq - entry.seq
        if sacked[index]:
            continue
        above = [other for other, mark in zip(queue[index + 1:], sacked[index + 1:]) if mark]
        runs = sum(1 for lo, _ in ranges if lo >= entry.end_seq)
        is_lost = sum(o.end_seq - o.seq for o in above) > 2 * mss or runs >= 3
        if sock._in_recovery and is_lost:
            assert entry.end_seq <= lost_edge
        if entry.end_seq <= high_rxt:
            assert entry.retransmitted
        pipe += size * ((entry.end_seq > lost_edge) + (entry.end_seq <= high_rxt))
    assert sock._pipe() == pipe
    return sum(hi - lo for lo, hi in ranges)


class TestSackedBytesCounter:
    """The scoreboard the socket keeps incrementally always equals a
    recount of its retransmission queue."""

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
        largest = resent = 0
        while not received and bed.sim.pending_events:
            bed.sim.run(max_events=50)
            for sock in (client, *bed.server.sockets()):
                largest = max(largest, recount_scoreboard(sock))
                resent = max(resent, sock._high_rxt - sock._snd_una)
        assert received == [size]
        assert largest > 0  # the cell did exercise selective acknowledgement
        assert resent > 0  # and resent data from the scoreboard


class TestScoreboardWork:
    def test_entries_touched_per_ack_follow_what_the_ack_changed(self, monkeypatch):
        """In SACK recovery at IW 100, an ACK reads the queue entries it
        acknowledges cumulatively (and the head that stops that loop), and
        the ones it resends, each found by bisection: never the flight."""
        touched: set[int] = set()

        class Counted(socket_module._SentSegment):
            def __getattribute__(self, name):
                touched.add(id(self))
                return object.__getattribute__(self, name)

        monkeypatch.setattr(socket_module, "_SentSegment", Counted)
        bed = sack_bed(sack=True, reverse_drops={60, 70, 75, 130})
        bed.server.ip.route_replace(TwoHostTestbed.CLIENT_ZONE, initcwnd=100)
        receive = bed.server.receive_packet
        checked = []

        def counted_receive(segment):
            socks = bed.server.sockets()
            if not socks or not socks[0]._in_recovery:
                receive(segment)
                return
            sender = socks[0]
            before = list(sender._rtx_queue)  # held, so no id is reused
            resent = sender.segments_retransmitted
            touched.clear()
            receive(segment)
            after = {id(entry) for entry in sender._rtx_queue}
            acked = sum(1 for entry in before if id(entry) not in after)
            resent = sender.segments_retransmitted - resent
            probes = math.ceil(math.log2(len(before) + 1))
            assert len(touched) <= acked + 1 + resent * (1 + probes), (len(before), acked, resent)
            checked.append(len(before))

        bed.server.receive_packet = counted_receive
        result = request_response(bed, response_bytes=1_000_000, deadline=60.0)
        assert result.completed
        assert len(checked) > 50 and max(checked) > 100  # many ACKs, a wide flight


class TestSackWithRiptide:
    def test_learned_initcwnd_composes_with_sack(self):
        config = TcpConfig(sack=True, default_initrwnd=300)
        bed = TwoHostTestbed(rtt=RTT, client_config=config, server_config=config)
        bed.serve_echo()
        bed.server.ip.route_replace("10.0.0.0/24", initcwnd=100)
        result = request_response(bed, response_bytes=100_000)
        assert result.total_time == pytest.approx(2 * RTT, rel=0.1)
