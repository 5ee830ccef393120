"""Unit tests for per-connection flow records."""

import pytest

from repro.obs.flow import FlowLog, FlowRecord
from repro.tcp.socket import TcpSocket
from repro.testing import TwoHostTestbed


def _close_on_peer_fin(sock: TcpSocket) -> None:
    sock.close_on_peer_fin = True


def begin(log, index=0, **overrides):
    kwargs = dict(
        host="srv",
        local="10.0.0.1",
        local_port=8080,
        remote="10.1.0.1",
        remote_port=32768 + index,
        opened_at=float(index),
        is_client=False,
        initial_cwnd=10,
        cwnd_source="default",
    )
    kwargs.update(overrides)
    return log.begin(**kwargs)


class TestBeginAndQuery:
    def test_ids_are_dense_in_begin_order(self):
        log = FlowLog(100_000)
        records = [begin(log, i) for i in range(3)]
        assert [r.flow_id for r in records] == [0, 1, 2]
        assert log.next_id == 3

    def test_filters_by_side(self):
        log = FlowLog(100_000)
        server = begin(log, 0, host="srv")
        client = begin(log, 1, host="cli", is_client=True)
        client.closed_at = 5.0
        assert log.records(is_client=False) == [server]
        assert log.records(is_client=True) == [client]

    def test_to_dict_has_stable_key_order(self):
        log = FlowLog(100_000)
        record = begin(log)
        keys = list(record.to_dict())
        assert keys[:3] == ["flow_id", "host", "local"]
        assert keys[-1] == "segments_retransmitted"


class TestCapacity:
    def test_drop_newest_counts_but_does_not_store(self):
        log = FlowLog(capacity=2)
        assert begin(log, 0) is not None
        assert begin(log, 1) is not None
        assert begin(log, 2) is None  # counted, not retained
        assert len(log) == 2
        assert log.next_id == 3
        assert log.dropped == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlowLog(capacity=0)


class TestMerge:
    def test_merge_renumbers_like_a_serial_run(self):
        serial = FlowLog(100_000)
        begin(serial, 0)
        begin(serial, 1)
        begin(serial, 2)

        first, second = FlowLog(100_000), FlowLog(100_000)
        begin(first, 0)
        begin(first, 1)
        begin(second, 2)
        target = FlowLog(100_000)
        target.merge_from(first)
        target.merge_from(second)

        assert [r.flow_id for r in target.records()] == [0, 1, 2]
        assert [r.to_dict() for r in target.records()] == [
            r.to_dict() for r in serial.records()
        ]

    def test_merge_respects_capacity_and_dropped_count(self):
        target = FlowLog(capacity=2)
        begin(target, 0)
        other = FlowLog(100_000)
        begin(other, 1)
        begin(other, 2)
        target.merge_from(other)
        assert len(target) == 2
        assert target.next_id == 3
        assert target.dropped == 1
        # The retained prefix is what a serial capacity-2 run would keep.
        assert [r.flow_id for r in target.records()] == [0, 1]


class TestSocketFlowRecords:
    """The record a socket opens, read back after its connection ends."""

    def _closed_client_flow(self, listen: bool) -> FlowRecord:
        """The client's record once its connection is over: closed as soon
        as it opens, or given up on (connect timeout) when the trunk is
        down and no SYN arrives."""
        bed = TwoHostTestbed()
        if listen:
            bed.server.listen(80, on_accept=_close_on_peer_fin)
        else:
            bed.trunk.set_down()
        bed.client.connect(bed.server.address, 80, on_established=TcpSocket.close)
        bed.sim.run()
        (flow,) = [r for r in bed.sim.obs.flows.records() if r.host == "client"]
        assert flow.closed_at is not None
        return flow

    def test_established_client_flow_is_client_side(self):
        assert self._closed_client_flow(listen=True).is_client

    def test_unestablished_client_flow_is_client_side(self):
        flow = self._closed_client_flow(listen=False)
        assert flow.error == "connect timeout"
        assert flow.is_client
