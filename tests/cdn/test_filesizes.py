"""Unit and property tests for the file-size distribution."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cdn.filesizes import MAX_OBJECT_BYTES, MIN_OBJECT_BYTES, FileSizeDistribution


@pytest.fixture
def dist():
    return FileSizeDistribution.production_cdn()


class TestCalibration:
    """The Figure 2/3 anchors the distribution was fit to."""

    def test_54_percent_exceed_default_window(self, dist):
        assert dist.fraction_exceeding(15_000) == pytest.approx(0.54, abs=0.02)

    def test_iw50_anchor(self, dist):
        """+31% of files complete in one RTT at IW50 vs IW10."""
        gain = dist.cdf(50 * 1460) - dist.cdf(10 * 1460)
        assert gain == pytest.approx(0.31, abs=0.03)

    def test_iw100_anchor(self, dist):
        """All but ~15% fit in one RTT at IW100."""
        assert dist.fraction_exceeding(100 * 1460) == pytest.approx(0.15, abs=0.02)

    def test_median_is_about_18kb(self, dist):
        assert dist.quantile(0.5) == pytest.approx(18_300, rel=0.05)


class TestSampling:
    def test_samples_within_clamp(self, dist):
        rng = random.Random(1)
        for _ in range(2000):
            size = dist.sample(rng)
            assert MIN_OBJECT_BYTES <= size <= MAX_OBJECT_BYTES

    def test_sampling_is_reproducible(self, dist):
        assert dist.sample_many(random.Random(7), 50) == dist.sample_many(
            random.Random(7), 50
        )

    def test_empirical_matches_analytic_cdf(self, dist):
        rng = random.Random(3)
        samples = dist.sample_many(rng, 50_000)
        for threshold in (5_000, 15_000, 100_000, 1_000_000):
            empirical = sum(1 for s in samples if s <= threshold) / len(samples)
            assert empirical == pytest.approx(dist.cdf(threshold), abs=0.02)

    def test_negative_count_rejected(self, dist):
        with pytest.raises(ValueError):
            dist.sample_many(random.Random(1), -1)


class TestAnalyticForm:
    def test_cdf_monotone(self, dist):
        values = [dist.cdf(x) for x in (10, 1_000, 100_000, 10_000_000)]
        assert values == sorted(values)

    def test_cdf_at_zero(self, dist):
        assert dist.cdf(0) == 0.0
        assert dist.cdf(-5) == 0.0

    def test_quantile_inverts_cdf(self, dist):
        for p in (0.1, 0.5, 0.9):
            assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-6)

    def test_quantile_bounds_rejected(self, dist):
        with pytest.raises(ValueError):
            dist.quantile(0.0)
        with pytest.raises(ValueError):
            dist.quantile(1.0)


@given(p=st.floats(min_value=0.01, max_value=0.99))
def test_quantile_cdf_round_trip(p):
    dist = FileSizeDistribution.production_cdn()
    assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-6)


@given(
    a=st.floats(min_value=100, max_value=1e9),
    b=st.floats(min_value=100, max_value=1e9),
)
def test_cdf_monotonicity_property(a, b):
    dist = FileSizeDistribution.production_cdn()
    low, high = min(a, b), max(a, b)
    assert dist.cdf(low) <= dist.cdf(high)
