"""Unit and property tests for CDFs, percentile gains and renderers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    EmpiricalCdf,
    format_cdf_rows,
    format_table,
    fraction_below,
    percentile_gain_profile,
    summarize,
)


class TestEmpiricalCdf:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([])

    def test_cdf_values(self):
        cdf = EmpiricalCdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.cdf(0.5) == 0.0
        assert cdf.cdf(2.0) == 0.5
        assert cdf.cdf(4.0) == 1.0

    def test_quantile_endpoints(self):
        cdf = EmpiricalCdf([5.0, 1.0, 3.0])
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 5.0

    def test_median_interpolates(self):
        assert EmpiricalCdf([0.0, 10.0]).median == pytest.approx(5.0)

    def test_summary_statistics(self):
        cdf = EmpiricalCdf([1.0, 2.0, 3.0])
        assert cdf.min == 1.0
        assert cdf.max == 3.0
        assert cdf.mean == pytest.approx(2.0)
        assert len(cdf) == 3

    def test_quantile_bounds_rejected(self):
        cdf = EmpiricalCdf([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(-0.1)
        with pytest.raises(ValueError):
            cdf.quantile(1.1)

    def test_percentiles(self):
        cdf = EmpiricalCdf(range(101))
        assert cdf.percentiles([50]) == [pytest.approx(50.0)]

    def test_series_for_plotting(self):
        series = EmpiricalCdf([1.0, 2.0, 3.0]).series(points=3)
        assert series[0] == (1.0, 0.0)
        assert series[-1] == (3.0, 1.0)

    def test_series_needs_two_points(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([1.0]).series(points=1)


class TestPercentileGain:
    def test_uniform_speedup(self):
        baseline = [float(i) for i in range(1, 101)]
        treatment = [v / 2.0 for v in baseline]
        profile = percentile_gain_profile(baseline, treatment)
        assert all(g.gain == pytest.approx(0.5, abs=0.01) for g in profile)

    def test_no_change_gives_zero_gain(self):
        values = [float(i) for i in range(1, 101)]
        profile = percentile_gain_profile(values, list(values))
        assert all(abs(g.gain) < 0.01 for g in profile)

    def test_tail_only_improvement(self):
        """Gains concentrated above the median (the Figure 15 shape)."""
        baseline = [1.0] * 50 + [4.0] * 50
        treatment = [1.0] * 50 + [2.0] * 50
        profile = percentile_gain_profile(baseline, treatment)
        low = [g for g in profile if g.percentile <= 45]
        high = [g for g in profile if g.percentile >= 60]
        assert all(abs(g.gain) < 0.05 for g in low)
        assert all(g.gain > 0.3 for g in high)

    def test_percentile_steps(self):
        profile = percentile_gain_profile([1.0, 2.0], [1.0, 2.0])
        assert [g.percentile for g in profile] == pytest.approx(
            [5.0 * i for i in range(1, 20)]
        )

    def test_zero_baseline_handled(self):
        from repro.analysis.stats import PercentileGain

        gain = PercentileGain(percentile=50, baseline=0.0, treatment=1.0)
        assert gain.gain == 0.0


class TestHelpers:
    def test_fraction_below(self):
        assert fraction_below([1, 2, 3, 4], 2) == 0.5

    def test_fraction_below_empty_rejected(self):
        with pytest.raises(ValueError):
            fraction_below([], 1)

    def test_summarize_keys(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["n"] == 3
        assert summary["median"] == 2.0
        assert set(summary) >= {"min", "max", "mean", "p25", "p75", "p90"}


class TestRenderers:
    def test_format_table_aligns(self):
        text = format_table(("a", "bbb"), [("x", "1"), ("yy", "22")], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_format_table_validates_row_width(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [("only-one",)])

    def test_format_cdf_rows(self):
        text = format_cdf_rows({"s": EmpiricalCdf([1.0, 2.0, 3.0])}, levels=(50,))
        assert "p50" in text
        assert "s" in text


@given(samples=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_cdf_quantile_monotone(samples):
    cdf = EmpiricalCdf(samples)
    previous = cdf.quantile(0.0)
    for i in range(1, 11):
        current = cdf.quantile(i / 10.0)
        assert current >= previous - 1e-9
        previous = current


@given(samples=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_cdf_bounds(samples):
    cdf = EmpiricalCdf(samples)
    assert cdf.min <= cdf.median <= cdf.max
    assert cdf.cdf(cdf.max) == 1.0
    assert cdf.cdf(cdf.min - 1.0) == 0.0
