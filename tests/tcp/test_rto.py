"""Unit tests for the RFC 6298 RTT estimator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tcp.constants import INITIAL_RTO, MAX_RTO, MIN_RTO
from repro.tcp.rto import RttEstimator


class TestInitialState:
    def test_initial_rto_before_samples(self):
        assert RttEstimator().rto == INITIAL_RTO

    def test_srtt_none_before_samples(self):
        assert RttEstimator().srtt is None


class TestSampling:
    def test_first_sample_initializes(self):
        est = RttEstimator()
        est.add_sample(0.100)
        assert est.srtt == pytest.approx(0.100)
        assert est._rttvar == pytest.approx(0.050)

    def test_rto_after_first_sample(self):
        est = RttEstimator()
        est.add_sample(0.100)
        # srtt + 4*rttvar = 0.1 + 0.2
        assert est.rto == pytest.approx(0.300)

    def test_min_rto_floor_applies(self):
        est = RttEstimator()
        est.add_sample(0.010)
        assert est.rto == MIN_RTO

    def test_steady_samples_converge(self):
        est = RttEstimator()
        for _ in range(100):
            est.add_sample(0.080)
        assert est.srtt == pytest.approx(0.080, rel=1e-3)
        assert est._rttvar == pytest.approx(0.0, abs=1e-3)

    def test_variance_reacts_to_jitter(self):
        est = RttEstimator()
        est.add_sample(0.100)
        for _ in range(10):
            est.add_sample(0.100)
        settled = est._rttvar
        est.add_sample(0.500)
        assert est._rttvar > settled

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().add_sample(-0.1)

    def test_nan_sample_rejected(self):
        est = RttEstimator()
        est.add_sample(0.1)
        rto = est.rto
        with pytest.raises(ValueError, match="nan"):
            est.add_sample(float("nan"))
        assert est.rto == rto
        assert est.samples == 1

    def test_infinite_sample_rejected(self):
        """Let in, one +inf sample pins srtt at +inf for good."""
        est = RttEstimator()
        est.add_sample(0.1)
        with pytest.raises(ValueError, match="inf"):
            est.add_sample(float("inf"))
        assert est.srtt == 0.1
        assert est.samples == 1

    @pytest.mark.parametrize("rtt", [0.0, 0.001, 0.1, 0.35, 2.0, 500.0])
    def test_sample_refreshes_rto_as_compute_rto_does(self, rtt):
        """``add_sample`` refreshes ``rto`` in line; the float must be the
        one ``_compute_rto`` returns, at both clamps and between."""
        est = RttEstimator()
        for sample in (0.1, rtt, rtt / 3, 0.05):
            est.back_off()
            est.add_sample(sample)
            assert est.rto == est._compute_rto()

    def test_sample_count(self):
        est = RttEstimator()
        est.add_sample(0.1)
        est.add_sample(0.1)
        assert est.samples == 2


class TestBackoff:
    def test_backoff_doubles_rto(self):
        est = RttEstimator()
        est.add_sample(0.100)
        base = est.rto
        est.back_off()
        assert est.rto == pytest.approx(2 * base)
        est.back_off()
        assert est.rto == pytest.approx(4 * base)

    def test_backoff_capped_at_max(self):
        est = RttEstimator()
        est.add_sample(1.0)
        for _ in range(20):
            est.back_off()
        assert est.rto == MAX_RTO

    def test_new_sample_clears_backoff(self):
        est = RttEstimator()
        est.add_sample(0.100)
        base = est.rto
        est.back_off()
        est.add_sample(0.100)
        assert est.rto == pytest.approx(base, rel=0.2)

    def test_reset_backoff(self):
        est = RttEstimator()
        est.add_sample(0.1)
        base = est.rto
        est.back_off()
        est.reset_backoff()
        assert est.rto == base


@given(samples=st.lists(st.floats(min_value=1e-4, max_value=5.0), min_size=1, max_size=50))
def test_rto_always_within_bounds(samples):
    est = RttEstimator()
    for sample in samples:
        est.add_sample(sample)
        assert MIN_RTO <= est.rto <= MAX_RTO


@given(
    samples=st.lists(st.floats(min_value=1e-4, max_value=5.0), min_size=1, max_size=20),
    backoffs=st.integers(min_value=0, max_value=30),
)
def test_backoff_monotone_and_capped(samples, backoffs):
    est = RttEstimator()
    for sample in samples:
        est.add_sample(sample)
    previous = est.rto
    for _ in range(backoffs):
        est.back_off()
        assert est.rto >= previous
        assert est.rto <= MAX_RTO
        previous = est.rto


class TestBackoffSaturation:
    """Regression: 2 ** exponent overflowed float conversion after ~1024
    consecutive timeouts (OverflowError in the rto property)."""

    def test_backoff_far_past_old_overflow_point(self):
        est = RttEstimator()
        for _ in range(5000):
            est.back_off()
        assert est.rto == MAX_RTO

    def test_backoff_saturates_at_max_rto(self):
        est = RttEstimator()
        previous = est.rto
        for _ in range(20):
            est.back_off()
            assert est.rto >= previous
            previous = est.rto
        assert est.rto == MAX_RTO

    def test_sample_after_saturation_clears_backoff(self):
        est = RttEstimator()
        for _ in range(3000):
            est.back_off()
        est.add_sample(0.050)
        assert est.rto < MAX_RTO

    def test_clamp_does_not_change_unsaturated_backoff(self):
        est = RttEstimator()
        est.back_off()
        est.back_off()
        assert est.rto == pytest.approx(4.0)
