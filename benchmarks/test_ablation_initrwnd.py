"""Ablation: the Section III-C initrwnd coupling.

"If a sender opens with large initial congestion window, the default
receive window may not be able to handle the first incoming burst.  To
avoid this limitation, the initrwnd must be increased to accommodate the
maximum initial congestion window, c_max."
"""

from repro.tcp import TcpConfig
from repro.testing import TwoHostTestbed, request_response

RTT = 0.100


def transfer_time(initcwnd: int, initrwnd: int) -> float:
    bed = TwoHostTestbed(
        rtt=RTT,
        client_config=TcpConfig(default_initrwnd=initrwnd),
        server_config=TcpConfig(default_initrwnd=initrwnd),
    )
    bed.serve_echo()
    bed.server.ip.route_replace("10.0.0.0/24", initcwnd=initcwnd)
    return request_response(bed, response_bytes=100_000).total_time


def run_ablation() -> dict:
    return {
        "iw10_stock": transfer_time(10, 20),
        "iw100_stock_rwnd": transfer_time(100, 20),
        "iw100_raised_rwnd": transfer_time(100, 300),
    }


def test_ablation_initrwnd_coupling():
    result = run_ablation()
    print("\nAblation: initrwnd coupling (100 KB, 100 ms RTT)")
    for name, value in result.items():
        print(f"  {name}: {value * 1000:.0f}ms")
    # A raised initcwnd helps even against a stock receive window (the
    # window auto-grows), but only a raised initrwnd realises the full
    # single-round transfer.
    assert result["iw100_stock_rwnd"] < result["iw10_stock"]
    assert result["iw100_raised_rwnd"] < result["iw100_stock_rwnd"]
    # The full configuration completes in ~2 RTT (handshake + one round).
    assert result["iw100_raised_rwnd"] < 2.5 * RTT
