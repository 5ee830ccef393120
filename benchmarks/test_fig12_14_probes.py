"""Figures 12-14 benchmark: probe completion-time CDFs by size/RTT bucket.

This module owns the full paired (control vs Riptide) probe study; the
Figure 15-16 and edge-case benchmarks reuse the same runs for their
analyses.
"""

from repro.experiments import fig12_14_probe_times


def test_fig12_14_probe_completion_times(paired_probe_study):
    control, riptide = paired_probe_study
    result = fig12_14_probe_times.build_result(control, riptide)
    print("\n" + result.report())
    # Shape anchors: 10 KB probes are untouched (they already fit in the
    # default window); 50 KB probes improve over part of the CDF
    # (paper: ~30%); 100 KB probes improve over most of it (paper: ~78%).
    assert result.fraction_improved_for_size(10_000) < 0.10
    assert 0.15 <= result.fraction_improved_for_size(50_000) <= 0.80
    assert result.fraction_improved_for_size(100_000) >= 0.60
    # Ordering: the larger the probe, the more of its CDF improves.
    assert (
        result.fraction_improved_for_size(100_000)
        > result.fraction_improved_for_size(50_000)
        > result.fraction_improved_for_size(10_000)
    )
