"""Unit and property tests for IPv4 addresses and prefixes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import IPv4Address, Prefix
from repro.net.errors import AddressError


class TestIPv4Address:
    def test_parse_dotted_quad(self):
        assert IPv4Address("10.0.0.1").value == (10 << 24) | 1

    def test_round_trip_string(self):
        assert str(IPv4Address("192.168.1.254")) == "192.168.1.254"

    def test_from_int(self):
        assert str(IPv4Address(0x0A000001)) == "10.0.0.1"

    def test_copy_constructor(self):
        original = IPv4Address("1.2.3.4")
        assert IPv4Address(original) == original

    def test_equality_and_hash(self):
        assert IPv4Address("10.0.0.1") == IPv4Address(0x0A000001)
        assert hash(IPv4Address("10.0.0.1")) == hash(IPv4Address(0x0A000001))

    def test_ordering(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")

    @pytest.mark.parametrize(
        "bad", ["10.0.0", "10.0.0.0.0", "256.0.0.1", "a.b.c.d", "10..0.1"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address(2**32)
        with pytest.raises(AddressError):
            IPv4Address(-1)


class TestPrefix:
    def test_parse_with_length(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert prefix.length == 24
        assert str(prefix) == "10.0.0.0/24"

    def test_bare_address_parses_as_host_route(self):
        assert Prefix.parse("10.0.0.5").length == 32

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            Prefix("10.0.0.1", 24)

    def test_invalid_length_rejected(self):
        with pytest.raises(AddressError):
            Prefix("10.0.0.0", 33)
        with pytest.raises(AddressError):
            Prefix("10.0.0.0", -1)

    def test_containing_masks_host_bits(self):
        prefix = Prefix.containing("10.0.0.77", 24)
        assert str(prefix) == "10.0.0.0/24"
        assert prefix.contains("10.0.0.77")

    def test_contains_boundaries(self):
        prefix = Prefix.parse("10.0.0.0/30")
        assert prefix.contains("10.0.0.0")
        assert prefix.contains("10.0.0.3")
        assert not prefix.contains("10.0.0.4")

    def test_contains_prefix(self):
        outer = Prefix.parse("10.0.0.0/16")
        inner = Prefix.parse("10.0.5.0/24")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)
        assert outer.contains_prefix(outer)

    def test_default_route_contains_everything(self):
        default = Prefix.parse("0.0.0.0/0")
        assert default.contains("255.255.255.255")
        assert default.contains("0.0.0.0")

    def test_num_addresses(self):
        assert Prefix.parse("10.0.0.0/30").num_addresses == 4
        assert Prefix.parse("10.0.0.1/32").num_addresses == 1

    def test_equality_and_hash(self):
        assert Prefix.parse("10.0.0.0/24") == Prefix.parse("10.0.0.0/24")
        assert Prefix.parse("10.0.0.0/24") != Prefix.parse("10.0.0.0/25")
        assert len({Prefix.parse("10.0.0.0/24"), Prefix.parse("10.0.0.0/24")}) == 1


addresses = st.integers(min_value=0, max_value=2**32 - 1)
lengths = st.integers(min_value=0, max_value=32)


@given(value=addresses)
def test_address_string_round_trip(value):
    address = IPv4Address(value)
    assert IPv4Address(str(address)) == address


@given(value=addresses, length=lengths)
def test_prefix_contains_its_own_addresses(value, length):
    prefix = Prefix.containing(value, length)
    assert prefix.contains(IPv4Address(value))


@given(value=addresses, length=lengths)
def test_prefix_containing_is_idempotent(value, length):
    prefix = Prefix.containing(value, length)
    again = Prefix.containing(prefix.network, length)
    assert prefix == again


@given(value=addresses, short=lengths, long=lengths)
def test_shorter_prefix_contains_longer(value, short, long):
    if short > long:
        short, long = long, short
    outer = Prefix.containing(value, short)
    inner = Prefix.containing(value, long)
    assert outer.contains_prefix(inner)
