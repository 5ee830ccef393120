"""Figure 3 benchmark: RTTs to complete transfers per initcwnd."""

from repro.experiments import fig03_rtt_cdf


def test_fig03_rtts_to_complete():
    result = fig03_rtt_cdf.run(samples=100_000)
    print("\n" + result.report())
    # Paper anchors: +31% first-RTT completions at IW50; 15% need more
    # than one RTT at IW100.
    assert abs(result.extra_first_rtt_at_50 - 0.31) < 0.03
    assert abs(result.not_first_rtt_at_100 - 0.15) < 0.02
