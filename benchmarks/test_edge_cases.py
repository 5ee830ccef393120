"""Section IV-D benchmark: best/worst-case probe times per destination."""

from repro.experiments import edge_cases


def test_edge_cases_minimum_and_maximum(paired_probe_study):
    control, riptide = paired_probe_study
    result = edge_cases.build_result(control, riptide)
    print("\n" + result.report())
    # Paper: the best cases were already completing in the minimum RTTs,
    # so most destinations show (near) zero change in their minimum.
    assert result.fraction_min_within() >= 0.5
    # Riptide never makes the best case meaningfully worse.
    assert all(d.min_change <= 0.05 for d in result.destinations)
