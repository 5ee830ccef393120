"""Ablation: congestion-control algorithm (CUBIC vs Reno) under Riptide.

Riptide leaves steady-state dynamics to the kernel's congestion control;
this ablation confirms the start-up gain is CC-agnostic (both algorithms
use identical slow start) while steady-state growth differs.
"""

import pytest

from repro.tcp import TcpConfig
from repro.testing import TwoHostTestbed, request_response

RTT = 0.100


def cold_transfer_time(cc_name: str, initcwnd: int) -> float:
    bed = TwoHostTestbed(
        rtt=RTT,
        client_config=TcpConfig(congestion_control=cc_name, default_initrwnd=300),
        server_config=TcpConfig(congestion_control=cc_name, default_initrwnd=300),
    )
    bed.serve_echo()
    bed.server.ip.route_replace("10.0.0.0/24", initcwnd=initcwnd)
    return request_response(bed, response_bytes=100_000).total_time


def steady_state_cwnd(cc_name: str) -> int:
    bed = TwoHostTestbed(
        rtt=RTT,
        client_config=TcpConfig(congestion_control=cc_name, default_initrwnd=300),
        server_config=TcpConfig(congestion_control=cc_name, default_initrwnd=300),
    )
    bed.serve_echo()
    request_response(bed, response_bytes=5_000_000, deadline=120.0)
    return bed.server.sockets()[0].cc.cwnd_segments


def run_ablation() -> dict:
    return {
        "cold": {
            cc: {iw: cold_transfer_time(cc, iw) for iw in (10, 100)}
            for cc in ("cubic", "reno")
        },
        "steady": {cc: steady_state_cwnd(cc) for cc in ("cubic", "reno")},
    }


def test_ablation_congestion_control():
    result = run_ablation()
    print("\nAblation: congestion control")
    for cc in ("cubic", "reno"):
        cold = result["cold"][cc]
        print(
            f"  {cc}: cold 100KB IW10={cold[10] * 1000:.0f}ms "
            f"IW100={cold[100] * 1000:.0f}ms steady cwnd={result['steady'][cc]}"
        )
    # The start-up gain is identical under both CCs (shared slow start):
    for cc in ("cubic", "reno"):
        assert result["cold"][cc][100] < result["cold"][cc][10]
    assert result["cold"]["cubic"][10] == pytest.approx(
        result["cold"]["reno"][10], rel=0.01
    )
    # Both grow far past the initial window on a long lossless transfer.
    assert result["steady"]["cubic"] > 100
    assert result["steady"]["reno"] > 100
