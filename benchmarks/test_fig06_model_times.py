"""Figure 6 benchmark: modelled 100 KB transfer times per initcwnd."""

from repro.experiments import fig06_transfer_time_model


def test_fig06_transfer_time_model():
    result = fig06_transfer_time_model.run()
    print("\n" + result.report())
    # Paper anchor: median IW10 penalty vs IW100 exceeds 280 ms.
    assert result.median_penalty_vs_100() > 0.280
    # Larger initial windows are never slower at any quantile.
    for p in (0.25, 0.5, 0.9):
        assert result.cdfs[10].quantile(p) >= result.cdfs[100].quantile(p)
