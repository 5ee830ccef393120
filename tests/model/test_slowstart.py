"""Unit and property tests for the Section II-B transfer model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model import (
    gain_fraction,
    gain_series,
    rounds_schedule,
    rtts_to_complete,
    segments_for,
    transfer_time,
)

MSS = 1460


class TestSegments:
    def test_exact_multiple(self):
        assert segments_for(10 * MSS) == 10

    def test_partial_segment_rounds_up(self):
        assert segments_for(10 * MSS + 1) == 11

    def test_zero_bytes(self):
        assert segments_for(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            segments_for(-1)


class TestRoundsSchedule:
    def test_doubling_schedule(self):
        assert rounds_schedule(10, 4) == [10, 30, 70, 150]

    def test_zero_rounds(self):
        assert rounds_schedule(10, 0) == []

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            rounds_schedule(0, 3)
        with pytest.raises(ValueError):
            rounds_schedule(10, -1)


class TestRttsToComplete:
    def test_fits_in_initial_window(self):
        assert rtts_to_complete(10 * MSS, 10) == 1

    def test_one_byte_over_needs_second_round(self):
        assert rtts_to_complete(10 * MSS + 1, 10) == 2

    def test_zero_bytes_needs_no_rtts(self):
        assert rtts_to_complete(0, 10) == 0

    def test_paper_example_100kb(self):
        """100 KB (69 segments): slow start covers 10/30/70 cumulative,
        so IW10 needs 3 rounds while IW100 needs a single one."""
        assert rtts_to_complete(100_000, 10) == 3
        assert rtts_to_complete(100_000, 25) == 2
        assert rtts_to_complete(100_000, 50) == 2
        assert rtts_to_complete(100_000, 100) == 1

    def test_15kb_boundary(self):
        """Paper: flows larger than ~15KB need more than a single RTT."""
        assert rtts_to_complete(14_600, 10) == 1
        assert rtts_to_complete(15_001, 10) == 2

    def test_invalid_initcwnd_rejected(self):
        with pytest.raises(ValueError):
            rtts_to_complete(1000, 0)


class TestTransferTime:
    def test_scales_with_rtt(self):
        assert transfer_time(100_000, 10, 0.1) == pytest.approx(0.3)
        assert transfer_time(100_000, 10, 0.2) == pytest.approx(0.6)

    def test_negative_rtt_rejected(self):
        with pytest.raises(ValueError):
            transfer_time(1000, 10, -0.1)


class TestGain:
    def test_no_gain_for_tiny_files(self):
        assert gain_fraction(5_000, 100) == 0.0

    def test_gain_for_100kb(self):
        # 3 RTTs -> 1 RTT is a 2/3 reduction.
        assert gain_fraction(100_000, 100) == pytest.approx(2.0 / 3.0)

    def test_gain_diminishes_for_huge_files(self):
        mid = gain_fraction(100_000, 100)
        huge = gain_fraction(50_000_000, 100)
        assert huge < mid

    def test_series_matches_pointwise(self):
        sizes = [10_000, 100_000, 1_000_000]
        series = gain_series(sizes, 50)
        assert series == [gain_fraction(s, 50) for s in sizes]

    def test_zero_byte_gain_is_zero(self):
        assert gain_fraction(0, 100) == 0.0


sizes = st.integers(min_value=0, max_value=100_000_000)
windows = st.integers(min_value=1, max_value=500)


@given(size=sizes, iw=windows)
def test_rtts_decrease_with_larger_windows(size, iw):
    assert rtts_to_complete(size, iw + 1) <= rtts_to_complete(size, iw)


@given(size=sizes, iw=windows)
def test_rtts_consistent_with_schedule(size, iw):
    """r rounds are enough iff the cumulative schedule covers the file."""
    r = rtts_to_complete(size, iw)
    n = segments_for(size)
    if r == 0:
        assert n == 0
    else:
        schedule = rounds_schedule(iw, r)
        assert schedule[-1] >= n
        if r > 1:
            assert schedule[-2] < n


@given(size=sizes, iw=st.integers(min_value=10, max_value=500))
def test_gain_bounded_for_windows_at_least_baseline(size, iw):
    gain = gain_fraction(size, iw)
    assert 0.0 <= gain < 1.0


@given(size=sizes, iw=st.integers(min_value=1, max_value=9))
def test_gain_negative_for_windows_below_baseline(size, iw):
    """Shrinking the window can only cost round trips."""
    assert gain_fraction(size, iw) <= 0.0 + 1e-9
