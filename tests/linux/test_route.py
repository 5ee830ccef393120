"""Unit and property tests for the route table."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.linux.route import RouteEntry, RouteTable
from repro.net.addresses import IPv4Address, Prefix
from repro.tcp.constants import DEFAULT_INIT_CWND
from repro.testing import TwoHostTestbed


def entry(prefix: str, initcwnd: int | None = None, initrwnd: int | None = None):
    return RouteEntry(prefix=Prefix.parse(prefix), initcwnd=initcwnd, initrwnd=initrwnd)


class TestRouteEntry:
    def test_invalid_initcwnd_rejected(self):
        with pytest.raises(ValueError):
            entry("10.0.0.0/24", initcwnd=0)

    def test_invalid_initrwnd_rejected(self):
        with pytest.raises(ValueError):
            entry("10.0.0.0/24", initrwnd=-5)

    def test_format_linux_includes_attributes(self):
        text = entry("10.0.0.127/32", initcwnd=80).format_linux()
        assert "10.0.0.127/32" in text
        assert "initcwnd 80" in text
        assert "proto static" in text

    def test_format_linux_omits_absent_attributes(self):
        text = entry("10.0.0.0/24").format_linux()
        assert "initcwnd" not in text
        assert "initrwnd" not in text


class TestRouteTable:
    def test_add_and_lookup(self):
        table = RouteTable()
        table.add(entry("10.0.0.0/24", initcwnd=50))
        found = table.lookup(IPv4Address("10.0.0.7"))
        assert found is not None
        assert found.initcwnd == 50

    def test_lookup_miss_returns_none(self):
        table = RouteTable()
        table.add(entry("10.0.0.0/24"))
        assert table.lookup(IPv4Address("192.168.0.1")) is None

    def test_longest_prefix_wins(self):
        table = RouteTable()
        table.add(entry("0.0.0.0/0", initcwnd=10))
        table.add(entry("10.0.0.0/8", initcwnd=20))
        table.add(entry("10.1.0.0/16", initcwnd=30))
        table.add(entry("10.1.2.0/24", initcwnd=40))
        table.add(entry("10.1.2.3/32", initcwnd=50))
        assert table.lookup(IPv4Address("10.1.2.3")).initcwnd == 50
        assert table.lookup(IPv4Address("10.1.2.4")).initcwnd == 40
        assert table.lookup(IPv4Address("10.1.9.9")).initcwnd == 30
        assert table.lookup(IPv4Address("10.9.9.9")).initcwnd == 20
        assert table.lookup(IPv4Address("11.0.0.1")).initcwnd == 10

    def test_duplicate_add_rejected(self):
        table = RouteTable()
        table.add(entry("10.0.0.0/24"))
        with pytest.raises(KeyError):
            table.add(entry("10.0.0.0/24"))

    def test_replace_overwrites(self):
        table = RouteTable()
        table.add(entry("10.0.0.0/24", initcwnd=10))
        table.replace(entry("10.0.0.0/24", initcwnd=99))
        assert table.lookup(IPv4Address("10.0.0.1")).initcwnd == 99
        assert len(table) == 1

    def test_delete_removes(self):
        table = RouteTable()
        table.add(entry("10.0.0.0/24", initcwnd=10))
        removed = table.delete(Prefix.parse("10.0.0.0/24"))
        assert removed.initcwnd == 10
        assert table.lookup(IPv4Address("10.0.0.1")) is None

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            RouteTable().delete(Prefix.parse("10.0.0.0/24"))

    def test_entries_sorted_most_specific_first(self):
        table = RouteTable()
        table.add(entry("0.0.0.0/0"))
        table.add(entry("10.0.0.5/32"))
        table.add(entry("10.0.0.0/24"))
        lengths = [e.prefix.length for e in table.entries()]
        assert lengths == [32, 24, 0]

    def test_get_exact_prefix_only(self):
        table = RouteTable()
        table.add(entry("10.0.0.0/24", initcwnd=10))
        assert table.get(Prefix.parse("10.0.0.0/24")) is not None
        assert table.get(Prefix.parse("10.0.0.0/25")) is None


addresses = st.integers(min_value=0, max_value=2**32 - 1)


@given(
    address=addresses,
    lengths=st.lists(st.integers(min_value=0, max_value=32), min_size=1, max_size=8, unique=True),
)
def test_lookup_always_selects_longest_matching_prefix(address, lengths):
    """Among routes that all contain the address, LPM picks the longest."""
    table = RouteTable()
    for length in lengths:
        table.add(
            RouteEntry(prefix=Prefix.containing(address, length), initcwnd=length + 1)
        )
    found = table.lookup(IPv4Address(address))
    assert found is not None
    assert found.prefix.length == max(lengths)


@given(address=addresses, other=addresses)
def test_host_route_never_matches_other_addresses(address, other):
    table = RouteTable()
    table.add(RouteEntry(prefix=Prefix.host(IPv4Address(address)), initcwnd=42))
    found = table.lookup(IPv4Address(other))
    if address != other:
        assert found is None
    else:
        assert found.initcwnd == 42


# ----------------------------------------------------------------------
# randomized differential: the indexed table against a linear scan
# ----------------------------------------------------------------------


def linear_lookup(routes: dict[Prefix, RouteEntry], address: int) -> RouteEntry | None:
    """The brute-force reference: test every route, keep the longest."""
    best = None
    for prefix, route in routes.items():
        if address & prefix.mask == prefix.network.value:
            if best is None or prefix.length > best.prefix.length:
                best = route
    return best


def prefix_pool(rng: random.Random) -> list[Prefix]:
    """Nested and sibling prefixes around a few anchors, /0 to /32."""
    pool = [Prefix(0, 0)]
    for _ in range(4):
        anchor = rng.getrandbits(32)
        for length in (8, 16, 24, 31, 32, rng.randint(1, 30)):
            nested = Prefix.containing(anchor, length)
            sibling = Prefix(nested.network.value ^ (1 << (32 - length)), length)
            pool += [nested, sibling]
    return pool


def probe_addresses(rng: random.Random, pool: list[Prefix]) -> list[int]:
    """Addresses inside, at the edges of and just outside pool prefixes."""
    picks = [rng.getrandbits(32) for _ in range(4)]
    for prefix in rng.sample(pool, 6):
        base = prefix.network.value
        picks += [
            base,
            base + rng.randrange(prefix.num_addresses),
            (base + prefix.num_addresses) & 0xFFFFFFFF,
            (base - 1) & 0xFFFFFFFF,
        ]
    return picks


def assert_same_table(table: RouteTable, model: dict[Prefix, RouteEntry], addresses):
    assert len(table) == len(model)
    assert table.entries() == sorted(
        model.values(), key=lambda e: (-e.prefix.length, e.prefix.network.value)
    )
    for address in addresses:
        assert table.lookup(IPv4Address(address)) is linear_lookup(model, address)


@pytest.mark.parametrize("seed", range(8))
def test_indexed_lookup_matches_linear_scan_under_random_mutation(seed):
    rng = random.Random(seed)
    pool = prefix_pool(rng)
    table = RouteTable()
    model: dict[Prefix, RouteEntry] = {}
    for step in range(400):
        prefix = rng.choice(pool)
        route = RouteEntry(prefix=prefix, initcwnd=rng.randint(1, 300), created_at=step)
        op = rng.choice(("add", "replace", "delete", "delete"))
        if op == "add":
            if prefix in model:
                with pytest.raises(KeyError):
                    table.add(route)
            else:
                table.add(route)
                model[prefix] = route
        elif op == "replace":
            table.replace(route)
            model[prefix] = route
        elif prefix in model:
            assert table.delete(prefix) is model.pop(prefix)
        else:
            with pytest.raises(KeyError):
                table.delete(prefix)
        assert_same_table(table, model, probe_addresses(rng, pool))
    # Empty every length level, the last route of each included, then refill.
    for prefix in list(model):
        table.delete(prefix)
        del model[prefix]
        assert_same_table(table, model, probe_addresses(rng, pool))
    assert table.lookup(IPv4Address(rng.getrandbits(32))) is None
    for prefix in rng.sample(pool, 10):
        model[prefix] = RouteEntry(prefix=prefix, initcwnd=7)
        table.replace(model[prefix])
    assert_same_table(table, model, probe_addresses(rng, pool))


def test_reboot_wipes_the_index_with_the_table():
    bed = TwoHostTestbed(rtt=0.080)
    host = bed.server
    client = bed.client.address
    host.ip.route_replace(f"{client}/32", initcwnd=50)
    host.ip.route_replace("0.0.0.0/0", initcwnd=20)
    assert host.initcwnd_for(client) == 50
    host.reboot()
    assert host.route_table.lookup(client) is None
    assert host.initcwnd_for(client) == DEFAULT_INIT_CWND
    host.ip.route_replace("0.0.0.0/0", initcwnd=30)
    assert host.initcwnd_for(client) == 30
