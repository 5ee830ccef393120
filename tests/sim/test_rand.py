"""Unit and property tests for seeded random streams."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.rand import RandomStreams


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(7)
        assert streams.stream("a") is streams.stream("a")

    def test_different_names_are_independent(self):
        streams = RandomStreams(7)
        first = [streams.stream("a").random() for _ in range(5)]
        second = [streams.stream("b").random() for _ in range(5)]
        assert first != second

    def test_reproducible_across_instances(self):
        draws_one = [RandomStreams(99).stream("loss").random() for _ in range(3)]
        draws_two = [RandomStreams(99).stream("loss").random() for _ in range(3)]
        assert draws_one == draws_two

    def test_different_master_seeds_diverge(self):
        a = RandomStreams(1).stream("x").random()
        b = RandomStreams(2).stream("x").random()
        assert a != b

    def test_fork_is_deterministic(self):
        fork_a = RandomStreams(5).fork("host1").stream("s").random()
        fork_b = RandomStreams(5).fork("host1").stream("s").random()
        assert fork_a == fork_b

    def test_fork_namespaces_do_not_collide(self):
        root = RandomStreams(5)
        a = root.fork("host1").stream("s").random()
        b = root.fork("host2").stream("s").random()
        assert a != b


@given(seed=st.integers(min_value=0, max_value=2**63 - 1), name=st.text(max_size=30))
def test_derivation_is_stable(seed, name):
    """The same (seed, name) always derives the same stream state."""
    first = RandomStreams(seed).stream(name).getrandbits(64)
    second = RandomStreams(seed).stream(name).getrandbits(64)
    assert first == second


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    names=st.lists(st.text(min_size=1, max_size=10), min_size=2, max_size=5, unique=True),
)
def test_stream_creation_order_is_irrelevant(seed, names):
    """Draws from a stream don't depend on which other streams exist."""
    forward = RandomStreams(seed)
    backward = RandomStreams(seed)
    for name in names:
        forward.stream(name)
    for name in reversed(names):
        backward.stream(name)
    for name in names:
        assert forward.stream(name).random() == backward.stream(name).random()
