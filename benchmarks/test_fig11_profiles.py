"""Figure 11 benchmark: probe-only vs organic-traffic PoP windows."""

from repro.experiments import fig11_traffic_profiles


def test_fig11_traffic_profiles():
    result = fig11_traffic_profiles.run()
    print("\n" + result.report())
    # Shape anchors: the organic PoP reaches c_max for a large fraction
    # of connections (paper: 44%), the probe-only PoP essentially never
    # does (paper: 99% below c_max) and its windows are much smaller.
    assert result.organic_fraction_at_cmax > 0.3
    assert result.probe_only_fraction_below_cmax > 0.9
    assert result.probe_only.median < result.organic.median
