"""Figure 10 benchmark: live congestion windows per c_max value.

Regenerates the sweep over c_max in {50, 100, 150, 200, 250} plus the
no-Riptide control group on the evaluation sub-topology.
"""

from repro.experiments import fig10_cmax_sweep


def test_fig10_cmax_sweep():
    result = fig10_cmax_sweep.run(duration=40.0, warmup=10.0)
    print("\n" + result.report())
    # Shape anchors: Riptide raises the median window substantially over
    # the control group (paper: ~100% at the lowest setting) ...
    assert result.median_increase_vs_control(50) > 0.5
    # ... every series has a mode at its own c_max (unused connections
    # parked at their learned initial window) ...
    assert result.fraction_at_cmax(50) > result.fraction_at_cmax(100)
    assert result.fraction_at_cmax(100) > result.fraction_at_cmax(250)
    # ... and returns diminish past 100 (the paper's knee): the median
    # stops growing once c_max exceeds what traffic actually reaches.
    median_100 = result.cdfs[100].median
    median_250 = result.cdfs[250].median
    assert median_250 <= median_100 * 1.25
