"""Property-based tests of end-to-end TCP invariants.

Whatever the loss pattern, the transfer either delivers every byte in
order exactly once, or fails loudly — never silently corrupts.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.loss import BernoulliLoss
from repro.tcp.constants import TcpConfig
from repro.testing import TwoHostTestbed, request_response

FAST_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FAST_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss=st.floats(min_value=0.0, max_value=0.05),
    size=st.integers(min_value=1, max_value=300_000),
)
def test_transfer_delivers_exact_byte_count(seed, loss, size):
    bed = TwoHostTestbed(
        rtt=0.060,
        loss_model=BernoulliLoss(loss),
        seed=seed,
        client_config=TcpConfig(default_initrwnd=300),
        server_config=TcpConfig(default_initrwnd=300),
    )
    bed.serve_echo()
    # Generous deadline: at the top of the loss range, RTO backoff on a
    # small window can legitimately stretch into minutes of sim time.
    result = request_response(bed, response_bytes=size, deadline=900.0)
    assert result.completed
    assert result.socket.bytes_received == size
    assert result.socket.messages_received == 1


@FAST_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    initcwnd=st.integers(min_value=1, max_value=300),
    size=st.integers(min_value=1, max_value=200_000),
)
def test_any_initcwnd_is_safe(seed, initcwnd, size):
    """No initial window choice can break correctness — only timing."""
    bed = TwoHostTestbed(
        rtt=0.050,
        seed=seed,
        client_config=TcpConfig(default_initrwnd=400),
        server_config=TcpConfig(default_initrwnd=400),
    )
    bed.serve_echo()
    bed.server.ip.route_replace("10.0.0.0/24", initcwnd=initcwnd)
    result = request_response(bed, response_bytes=size, deadline=120.0)
    assert result.completed
    assert result.socket.bytes_received == size


@FAST_SETTINGS
@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=60_000), min_size=1, max_size=6
    )
)
def test_messages_arrive_in_order(sizes):
    """Multiple messages on one connection arrive exactly in send order."""
    bed = TwoHostTestbed(rtt=0.040)
    received = []

    def server_on_message(sock, payload, size):
        received.append(payload)

    bed.server.listen(
        7000, on_accept=lambda s: setattr(s, "on_message", server_on_message)
    )

    def on_established(sock):
        for index, size in enumerate(sizes):
            sock.send_message(index, size)

    bed.client.connect(bed.server.address, 7000, on_established=on_established)
    bed.sim.run(until=60.0)
    assert received == list(range(len(sizes)))


@FAST_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss=st.floats(min_value=0.0, max_value=0.05),
)
def test_larger_initcwnd_never_slower_on_clean_path(seed, loss):
    """On the same path and seed, IW100 never loses to IW10 by more than
    noise (with zero loss it must be strictly at least as fast)."""
    def run_with(iw: int) -> float:
        bed = TwoHostTestbed(
            rtt=0.080,
            seed=seed,
            loss_model=BernoulliLoss(loss),
            client_config=TcpConfig(default_initrwnd=300),
            server_config=TcpConfig(default_initrwnd=300),
        )
        bed.serve_echo()
        bed.server.ip.route_replace("10.0.0.0/24", initcwnd=iw)
        result = request_response(bed, response_bytes=100_000, deadline=300.0)
        assert result.completed
        return result.total_time

    slow, fast = run_with(10), run_with(100)
    if loss == 0.0:
        assert fast <= slow + 1e-9
