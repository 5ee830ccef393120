"""Order statistics and the tail-percentile sample rule."""

import statistics

import pytest

from stats import nearest_rank, spread, summarize, tail_supported


def test_nearest_rank_picks_an_observed_value():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 0.5) == 3.0
    assert nearest_rank(values, 0.9) == 5.0
    assert nearest_rank(values, 0.2) == 1.0
    assert nearest_rank([7.0], 0.9) == 7.0


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 1.5)


def test_p90_needs_ten_samples_beyond_it():
    assert not tail_supported(99, 0.90)
    assert tail_supported(100, 0.90)
    assert tail_supported(135, 0.90)
    # A median is backed far earlier; a p99 far later.
    assert tail_supported(20, 0.50)
    assert not tail_supported(999, 0.99)
    assert tail_supported(1000, 0.99)


def test_summarize_reports_median_with_spread_and_count():
    values = [4.17, 5.03, 4.40, 4.61, 4.52]
    summary = summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary["median"] == 4.52
    assert summary["min"] == 4.17 and summary["max"] == 5.03
    assert summary["q1"] == q1 and summary["q3"] == q3
    assert summary["n"] == 5


def test_summarize_of_one_sample_is_that_sample():
    assert summarize([2.5]) == {
        "median": 2.5, "min": 2.5, "max": 2.5, "q1": 2.5, "q3": 2.5, "n": 1,
    }


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert spread([3.0, 3.0, 3.0]) == 0.0
