"""Ablation: history policy (EWMA vs windowed vs none).

Section III-B: the EWMA "prevents the congestion window from enacting
dangerous increases, and likewise prevents the window from plummeting"
when connections churn.  This ablation feeds each policy the same noisy
observation sequence and compares stability and responsiveness.
"""

import statistics

from repro.core.history import make_history_policy


def drive(policy_name: str, sequence: list[float]) -> list[float]:
    policy = make_history_policy(policy_name, alpha=0.7, window=10)
    return [policy.update("dest", value) for value in sequence]


def run_ablation() -> dict:
    # A path whose live windows oscillate (churn: connections close and
    # new small ones appear), then permanently degrade.
    noisy = [100, 10, 100, 10, 100, 10, 100, 10, 100, 10] * 3
    degraded = [100.0] * 10 + [10.0] * 20
    return {
        name: {
            "noise_stdev": statistics.pstdev(drive(name, noisy)[5:]),
            "degrade_trace": drive(name, degraded),
        }
        for name in ("ewma", "windowed", "none")
    }


def test_ablation_history_policies():
    result = run_ablation()
    print("\nAblation: history policy under churn")
    for name, data in result.items():
        final = data["degrade_trace"][-1]
        print(
            f"  {name}: stdev under churn={data['noise_stdev']:.1f} "
            f"value 20 ticks after degradation={final:.1f}"
        )
    # Smoothing policies damp churn far below the raw oscillation.
    assert result["ewma"]["noise_stdev"] < result["none"]["noise_stdev"]
    assert result["windowed"]["noise_stdev"] < result["none"]["noise_stdev"]
    # All policies eventually converge to the degraded level.
    for name in ("ewma", "windowed", "none"):
        assert result[name]["degrade_trace"][-1] < 15.0
    # But "none" reacts instantly while EWMA glides down (no plummet).
    ewma_first_after = result["ewma"]["degrade_trace"][10]
    none_first_after = result["none"]["degrade_trace"][10]
    assert none_first_after == 10.0
    assert ewma_first_after > 30.0
