"""Ablation: NewReno-only vs SACK-assisted loss recovery.

The calibrated experiments run NewReno (the reproduction default); this
ablation shows what the SACK option buys on lossy paths — multi-loss
windows recover in one round trip instead of one round trip per hole.
"""

from repro.net.loss import BernoulliLoss
from repro.tcp import TcpConfig
from repro.testing import TwoHostTestbed, request_response

RTT = 0.100


def transfer_under_loss(sack: bool, seed: int) -> float:
    config = TcpConfig(sack=sack, default_initrwnd=300)
    bed = TwoHostTestbed(
        rtt=RTT,
        loss_model=BernoulliLoss(0.02),
        seed=seed,
        client_config=config,
        server_config=config,
    )
    bed.serve_echo()
    result = request_response(bed, response_bytes=400_000, deadline=300.0)
    assert result.completed
    return result.total_time


def run_ablation() -> dict:
    seeds = range(1, 9)
    return {
        "newreno": [transfer_under_loss(False, s) for s in seeds],
        "sack": [transfer_under_loss(True, s) for s in seeds],
    }


def test_ablation_sack_recovery():
    result = run_ablation()
    mean_newreno = sum(result["newreno"]) / len(result["newreno"])
    mean_sack = sum(result["sack"]) / len(result["sack"])
    print("\nAblation: 400KB over a 2%-loss path (mean of 8 seeds)")
    print(f"  newreno: {mean_newreno * 1000:.0f}ms")
    print(f"  sack:    {mean_sack * 1000:.0f}ms")
    # SACK recovers multi-loss windows without serial hole-filling.
    assert mean_sack <= mean_newreno
