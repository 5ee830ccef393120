"""Ablation: combination algorithm (average vs max vs traffic-weighted).

Section III-B: the average is the deployed choice; max is the aggressive
variant ("the most the link is capable of handling"), traffic-weighting
the conservative one.  This ablation runs the same host with synthetic
connection mixes under each combiner and compares the learned windows.
"""

from repro.core.agent import RiptideAgent
from repro.core.config import RiptideConfig
from repro.net.addresses import Prefix
from repro.tcp.constants import TcpConfig
from repro.testing import TwoHostTestbed, request_response


def learned_window(combiner: str) -> int:
    """Learned window for a mix of one busy and several idle connections."""
    bed = TwoHostTestbed(
        rtt=0.080,
        client_config=TcpConfig(default_initrwnd=300),
        server_config=TcpConfig(default_initrwnd=300),
    )
    bed.serve_echo()
    agent = RiptideAgent(
        bed.server,
        RiptideConfig(update_interval=0.5, combiner=combiner, c_max=500),
    )
    agent.start()
    # One big transfer grows a fat connection; three small ones stay thin.
    request_response(bed, response_bytes=1_500_000, deadline=60.0)
    for _ in range(3):
        request_response(bed, response_bytes=2_000)
    bed.sim.run(until=bed.sim.now + 3.0)
    learned = agent.learned_window_for(Prefix.host(bed.client.address))
    assert learned is not None
    return learned


def run_ablation() -> dict:
    return {name: learned_window(name) for name in ("average", "max", "traffic_weighted")}


def test_ablation_combiners():
    result = run_ablation()
    print("\nAblation: combiner -> learned window")
    for name, window in result.items():
        print(f"  {name}: {window}")
    # Aggressiveness ordering: max >= average, and the traffic-weighted
    # combiner leans toward the busy (large) connection, so it sits at or
    # above the plain average for this mix.
    assert result["max"] >= result["average"]
    assert result["traffic_weighted"] >= result["average"]
    # All three learned something beyond the default.
    assert all(window > 10 for window in result.values())
