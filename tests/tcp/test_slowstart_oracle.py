"""The lossless slow-start oracle, over drawn parameters.

ROADMAP fidelity item (a): on a loss-free path whose serialization time
is negligible beside the RTT, a request/response exchange takes exactly
the round count of the paper's Section II-B model (``repro.model``) plus
the handshake round — for any size, RTT, initial window and SACK setting,
not only at the figure's anchor points.  Delayed ACKs may add one
delayed-ACK timer (a short odd first flight waits for it) and nothing
else.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.slowstart import rtts_to_complete
from repro.tcp.constants import DEFAULT_MSS, DELAYED_ACK_TIMEOUT, TcpConfig
from repro.testing import TwoHostTestbed, request_response

BANDWIDTH_BPS = 10e9
MAX_SIZE = 5_000_000
MIN_RTT, MAX_RTT = 0.005, 0.3
#: How far from a whole number of rounds serialization may push a run.
ROUND_TOLERANCE = 0.05
#: The whole response serializes within this share of one RTT.
SERIALIZATION_SHARE = 0.02

ORACLE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def exchanges(draw: st.DrawFn) -> tuple[int, float, int, bool]:
    """``(size, rtt, initcwnd, sack)`` with sizes spread over every regime.

    A uniform draw from 1..5 MB almost never leaves the first round or
    lands on a round's last byte, so a third of the sizes are
    log-uniform and a third sit on the boundary between two rounds.
    """
    initcwnd = draw(st.integers(min_value=1, max_value=250))
    regime = draw(st.sampled_from(("uniform", "log-uniform", "round boundary")))
    if regime == "uniform":
        size = draw(st.integers(min_value=1, max_value=MAX_SIZE))
    elif regime == "log-uniform":
        size = round(10 ** draw(st.floats(min_value=0.0, max_value=math.log10(MAX_SIZE))))
    else:
        rounds = draw(st.integers(min_value=1, max_value=8))
        size = initcwnd * (2**rounds - 1) * DEFAULT_MSS + draw(st.integers(-1, 1))
        size = min(max(size, 1), MAX_SIZE)
    shortest = size * 8 / BANDWIDTH_BPS / SERIALIZATION_SHARE
    rtt = draw(st.floats(min_value=max(MIN_RTT, shortest), max_value=MAX_RTT))
    return size, rtt, initcwnd, draw(st.booleans())


def exchange_time(
    size: int, rtt: float, initcwnd: int, sack: bool, delayed_ack: bool
) -> float:
    config = TcpConfig(default_initrwnd=300, sack=sack, delayed_ack=delayed_ack)
    bed = TwoHostTestbed(
        rtt=rtt,
        bandwidth_bps=BANDWIDTH_BPS,
        client_config=config,
        server_config=config,
    )
    bed.serve_echo()
    bed.server.ip.route_replace(TwoHostTestbed.CLIENT_ZONE, initcwnd=initcwnd)
    exchange = request_response(bed, size)
    assert exchange.completed
    assert exchange.socket.bytes_received == size
    assert bed.trunk.forward.stats.packets_dropped == 0
    assert bed.trunk.reverse.stats.packets_dropped == 0
    return exchange.total_time


@ORACLE_SETTINGS
@given(exchanges())
def test_completion_time_is_the_model_round_count(exchange):
    size, rtt, initcwnd, sack = exchange
    total = exchange_time(size, rtt, initcwnd, sack, delayed_ack=False)
    rounds = rtts_to_complete(size, initcwnd) + 1
    assert abs(total / rtt - rounds) <= ROUND_TOLERANCE


@ORACLE_SETTINGS
@given(exchanges())
def test_delayed_acks_add_at_most_one_timer(exchange):
    size, rtt, initcwnd, sack = exchange
    total = exchange_time(size, rtt, initcwnd, sack, delayed_ack=True)
    surplus = total - (rtts_to_complete(size, initcwnd) + 1) * rtt
    assert -1e-9 <= surplus <= DELAYED_ACK_TIMEOUT + ROUND_TOLERANCE * rtt
