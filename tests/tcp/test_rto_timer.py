"""The socket's lazy retransmission timer: one deadline, one heap entry.

Restarting the timer on an ACK only moves ``_rto_deadline``; the pending
kernel event re-schedules itself when it fires early.  These tests pin
the three ways that could go wrong: a timeout that comes late because
the deadline moved *earlier* than the pending event, heap traffic per
ACK creeping back, and a torn-down socket leaving its timer behind.
"""

from collections.abc import Callable

import pytest
import test_packet_path_golden as golden

from repro.obs.trace import EventType
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.tcp.constants import MIN_RTO, TcpConfig
from repro.tcp.socket import TcpSocket, TcpState
from repro.tcp.wire import Segment
from repro.testing import TwoHostTestbed, request_response
from tests.golden import load

RTT = 0.050


def connected_pair(bed: TwoHostTestbed) -> tuple[TcpSocket, TcpSocket]:
    """An established (client, server) pair; the server answers nothing."""
    accepted: list[TcpSocket] = []
    bed.server.listen(80, on_accept=accepted.append)
    client = bed.client.connect(bed.server.address, 80)
    bed.sim.run(until=bed.sim.now + 2 * RTT)
    assert client.is_established and accepted[0].is_established
    return client, accepted[0]


@pytest.fixture
def cancelled(monkeypatch: pytest.MonkeyPatch) -> Callable[[], int]:
    """Events cancelled before they fired, counted by wrapping
    ``Simulator.cancel`` (as ``bench/tracer.py`` does)."""
    count = 0
    cancel = Simulator.cancel

    def counting_cancel(sim: Simulator, event: Event) -> None:
        nonlocal count
        count += not (event.cancelled or event.fired)
        cancel(sim, event)

    monkeypatch.setattr(Simulator, "cancel", counting_cancel)
    return lambda: count


class TestDeadlineMovesEarlier:
    def test_first_sample_after_retransmitted_syn_shrinks_the_timer(self):
        """Karn: a retransmitted SYN yields no sample, so the first data
        flight is timed with the backed-off initial RTO; the first data
        ACK then brings the deadline *forward* past the pending event.
        The timeout that follows under silence must use the new one."""
        bed = TwoHostTestbed(rtt=RTT, bandwidth_bps=10e6)
        bed.server.listen(80)
        bed.trunk.set_down()
        client = bed.client.connect(bed.server.address, 80)
        bed.sim.run(until=0.5)
        bed.trunk.set_up()
        bed.sim.run(until=1.0 + 1.2 * RTT)  # the SYN's RTO fired at t=1.0
        assert client.is_established and client.srtt is None

        client.send_message("upload", 400_000)
        slow_deadline = client._rto_deadline
        assert slow_deadline == pytest.approx(bed.sim.now + 2.0)
        bed.sim.run(until=bed.sim.now + 1.5 * RTT)  # first ACKs are in
        assert client.srtt is not None
        assert client._rto_event.time < slow_deadline
        assert client._rto_event.time <= client._rto_deadline < slow_deadline

        # Silence: every later ACK is lost, so the last one heard sets
        # the timeout — at exactly the eager formula's instant.
        bed.trunk.set_down()
        bed.sim.run(until=bed.sim.now + 0.6 * RTT)
        expected = client.last_activity_at + client._rtt.rto
        assert client._rto_deadline == expected
        bed.sim.run(until=expected + 0.001)
        fired = [
            e for e in bed.sim.obs.trace.events()
            if e.type is EventType.RTO_FIRED and e.source == "client"
        ]
        assert [repr(event.time) for event in fired] == [repr(1.0), repr(expected)]

    def test_backoff_reset_replaces_a_far_pending_event(self):
        bed = TwoHostTestbed(rtt=RTT, bandwidth_bps=10e6)
        client, _ = connected_pair(bed)
        client.send_message("upload", 400_000)
        # As after a streak of four timeouts: the event sits 16 RTOs out.
        client._cancel_rto()
        for _ in range(4):
            client._rtt.back_off()
        client._arm_rto()
        far = client._rto_event.time
        assert far == pytest.approx(bed.sim.now + 16 * MIN_RTO)
        bed.sim.run(until=bed.sim.now + 1.5 * RTT)
        assert client._rto_event.time < far
        assert client._rto_deadline < far


class TestHeapTrafficPerAck:
    def test_back_to_back_acks_add_no_timer_entries(self, cancelled):
        bed = TwoHostTestbed(
            rtt=RTT,
            bandwidth_bps=1e6,
            client_config=TcpConfig(default_initrwnd=300),
        )
        bed.server.ip.route_replace(f"{bed.client.address}/32", initcwnd=60)
        client, server = connected_pair(bed)
        server.send_message("response", 60 * server.config.mss)
        pending, cancels = bed.sim.pending_events, cancelled()
        sent = server.segments_sent
        mss = server.config.mss
        for index in range(1, 41):
            server.handle_segment(
                Segment(
                    src=bed.client.address,
                    dst=bed.server.address,
                    src_port=client.local_port,
                    dst_port=80,
                    seq=client._snd_nxt,
                    ack=1 + index * mss,
                    is_ack=True,
                    rwnd_bytes=1 << 20,
                )
            )
        assert server._snd_una == 1 + 40 * mss
        assert server.segments_sent == sent  # nothing left to send: pure ACK work
        # The busy link queues without scheduling, so any change would be
        # the retransmission timer's.
        assert bed.sim.pending_events == pending
        assert cancelled() == cancels

    def test_clean_transfer_cancels_per_flight_not_per_ack(self, cancelled):
        bed = TwoHostTestbed(
            rtt=RTT,
            client_config=TcpConfig(default_initrwnd=300),
        )
        bed.serve_echo()
        result = request_response(bed, response_bytes=1_000_000)
        assert result.completed
        assert result.socket.segments_received > 600
        assert cancelled() <= 8
        assert bed.sim.pending_events == 0


class TestTeardownLeavesNoTimer:
    @pytest.mark.parametrize("how", ["close", "abort", "vanish"])
    def test_both_ends_torn_down_mid_transfer(self, how):
        bed = TwoHostTestbed(rtt=RTT, bandwidth_bps=10e6)
        client, server = connected_pair(bed)
        client.send_message("upload", 200_000)
        server.send_message("download", 200_000)
        bed.sim.run(until=bed.sim.now + 1.5 * RTT)
        assert client._rto_event is not None and server._rto_event is not None
        getattr(client, how)()
        getattr(server, how)()
        torn_down_at = bed.sim.now
        bed.sim.run()
        assert client.state is TcpState.CLOSED and server.state is TcpState.CLOSED
        assert client._rto_event is None and server._rto_event is None
        assert bed.sim.pending_events == 0
        if how != "close":
            # Only packets already on the wire outlive the sockets — no
            # timer keeps the simulation alive for another RTO.
            assert bed.sim.now - torn_down_at < MIN_RTO


class TestRetryLimit:
    def test_rto_streak_ends_in_transfer_timeout_at_the_golden_instant(self):
        recorded = load(golden.GOLDEN_PATH)["testbed"]["blackholes"][0]
        rerun = golden.run_blackhole_cell(recorded["params"])
        assert rerun["errors"] == recorded["errors"]
        (end, reason, _), = rerun["errors"]
        assert (end, reason) == ("server", "transfer timeout")
        assert rerun["server"][0]["rtos_fired"] == TcpSocket.MAX_DATA_RETRIES + 1
        assert rerun["pending_events"] == 0
