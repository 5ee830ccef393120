"""Figure 5 benchmark: the inter-PoP RTT distribution."""

from repro.experiments import fig05_rtt_distribution


def test_fig05_rtt_distribution():
    result = fig05_rtt_distribution.run()
    print("\n" + result.report())
    # Paper anchor: the median pairwise RTT exceeds 125 ms.
    assert result.cdf.median > 0.125
    assert 0.4 <= result.fraction_over_125ms <= 0.75
