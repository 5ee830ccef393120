"""Figures 15-16 benchmark: fraction of gain by percentile."""

from repro.experiments import fig15_16_percentile_gain
from repro.experiments.scenarios import EU_SOURCE, NA_SOURCE


def test_fig15_16_percentile_gain(paired_probe_study):
    control, riptide = paired_probe_study
    result = fig15_16_percentile_gain.build_result(control, riptide)
    print("\n" + result.report())
    # Shape anchors: substantial upper-percentile gains for the 50 KB
    # probes (paper: up to ~30% EU / ~21% NA) ...
    for pop in (EU_SOURCE, NA_SOURCE):
        upper = [
            g.gain
            for g in result.profile(50_000, pop)
            if g.percentile >= 70
        ]
        assert max(upper) > 0.2
    # ... and 100 KB gains at least match 50 KB gains in breadth.
    for pop in (EU_SOURCE, NA_SOURCE):
        gains_50 = [g.gain for g in result.profile(50_000, pop)]
        gains_100 = [g.gain for g in result.profile(100_000, pop)]
        improved_50 = sum(1 for g in gains_50 if g > 0.05)
        improved_100 = sum(1 for g in gains_100 if g > 0.05)
        assert improved_100 >= improved_50
