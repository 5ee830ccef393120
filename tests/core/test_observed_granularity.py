"""Unit tests for the learned table and destination grouping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.granularity import DestinationGrouper
from repro.core.observed import LearnedTable
from repro.net.addresses import IPv4Address, Prefix


class TestLearnedTable:
    def test_record_and_get(self):
        table = LearnedTable(ttl=90.0)
        dest = Prefix.parse("10.0.0.1/32")
        entry = table.record(dest, 80, now=10.0)
        assert entry.expires_at == 100.0
        assert table.get(dest).window == 80
        assert dest in table

    def test_refresh_resets_ttl(self):
        table = LearnedTable(ttl=90.0)
        dest = Prefix.parse("10.0.0.1/32")
        table.record(dest, 80, now=0.0)
        table.record(dest, 85, now=50.0)
        assert table.get(dest).expires_at == 140.0

    def test_pop_expired(self):
        table = LearnedTable(ttl=90.0)
        fresh = Prefix.parse("10.0.0.1/32")
        stale = Prefix.parse("10.0.0.2/32")
        table.record(stale, 80, now=0.0)
        table.record(fresh, 90, now=60.0)
        expired = table.pop_expired(now=95.0)
        assert [e.destination for e in expired] == [stale]
        assert stale not in table
        assert fresh in table

    def test_entries_sorted_by_recency(self):
        table = LearnedTable(ttl=90.0)
        older = Prefix.parse("10.0.0.1/32")
        newer = Prefix.parse("10.0.0.2/32")
        table.record(older, 10, now=0.0)
        table.record(newer, 20, now=5.0)
        assert [e.destination for e in table.entries()] == [newer, older]

    def test_windows_view(self):
        table = LearnedTable(ttl=90.0)
        dest = Prefix.parse("10.0.0.1/32")
        table.record(dest, 77, now=0.0)
        assert table.windows() == {dest: 77}

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError):
            LearnedTable(ttl=0.0)

    def test_invalid_window_rejected(self):
        table = LearnedTable(ttl=90.0)
        with pytest.raises(ValueError):
            table.record(Prefix.parse("10.0.0.1/32"), 0, now=0.0)

    def test_len(self):
        table = LearnedTable(ttl=90.0)
        table.record(Prefix.parse("10.0.0.1/32"), 10, now=0.0)
        table.record(Prefix.parse("10.0.0.2/32"), 10, now=0.0)
        assert len(table) == 2


class TestDestinationGrouper:
    def test_host_granularity_gives_slash_32(self):
        grouper = DestinationGrouper("host")
        key = grouper.key_for(IPv4Address("10.5.6.7"))
        assert key == Prefix.parse("10.5.6.7/32")

    def test_prefix_granularity_masks(self):
        grouper = DestinationGrouper("prefix", prefix_length=16)
        key = grouper.key_for(IPv4Address("10.5.6.7"))
        assert key == Prefix.parse("10.5.0.0/16")

    def test_hosts_in_same_prefix_share_key(self):
        grouper = DestinationGrouper("prefix", prefix_length=24)
        a = grouper.key_for(IPv4Address("10.5.6.7"))
        b = grouper.key_for(IPv4Address("10.5.6.200"))
        assert a == b

    @pytest.mark.parametrize("granularity", ["host", "prefix"])
    def test_equal_addresses_get_equal_keys(self, granularity):
        """Keys are remembered per address; a repeat must not drift."""
        grouper = DestinationGrouper(granularity, prefix_length=16)
        fresh = DestinationGrouper(granularity, prefix_length=16)
        for text in ("10.5.6.7", "10.5.9.9", "10.6.0.1", "10.5.6.7"):
            first = grouper.key_for(IPv4Address(text))
            again = grouper.key_for(IPv4Address(text))
            assert first == again == fresh.key_for(IPv4Address(text))
            assert hash(first) == hash(again)
            assert first.contains(IPv4Address(text))

    def test_invalid_granularity_rejected(self):
        with pytest.raises(ValueError):
            DestinationGrouper("asn")

    def test_invalid_prefix_length_rejected(self):
        with pytest.raises(ValueError):
            DestinationGrouper("prefix", prefix_length=33)


@given(
    address=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.integers(min_value=0, max_value=32),
)
def test_prefix_key_always_contains_address(address, length):
    grouper = DestinationGrouper("prefix", prefix_length=length)
    key = grouper.key_for(IPv4Address(address))
    assert key.contains(IPv4Address(address))
    assert key.length == length
