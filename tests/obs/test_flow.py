"""Unit tests for per-connection flow records."""

import pytest

from repro.obs.flow import FlowLog


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
        log = FlowLog()
        records = [begin(log, i) for i in range(3)]
        assert [r.flow_id for r in records] == [0, 1, 2]
        assert log.next_id == 3

    def test_filters_by_host_and_side(self):
        log = FlowLog()
        server = begin(log, 0, host="srv")
        client = begin(log, 1, host="cli", is_client=True)
        client.closed_at = 5.0
        assert log.records(host="srv") == [server]
        assert log.records(is_client=True) == [client]

    def test_to_dict_has_stable_key_order(self):
        log = FlowLog()
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
        serial = FlowLog()
        begin(serial, 0)
        begin(serial, 1)
        begin(serial, 2)

        first, second = FlowLog(), FlowLog()
        begin(first, 0)
        begin(first, 1)
        begin(second, 2)
        target = FlowLog()
        target.merge_from(first)
        target.merge_from(second)

        assert [r.flow_id for r in target.records()] == [0, 1, 2]
        assert [r.to_dict() for r in target.records()] == [
            r.to_dict() for r in serial.records()
        ]

    def test_merge_respects_capacity_and_dropped_count(self):
        target = FlowLog(capacity=2)
        begin(target, 0)
        other = FlowLog()
        begin(other, 1)
        begin(other, 2)
        target.merge_from(other)
        assert len(target) == 2
        assert target.next_id == 3
        assert target.dropped == 1
        # The retained prefix is what a serial capacity-2 run would keep.
        assert [r.flow_id for r in target.records()] == [0, 1]
