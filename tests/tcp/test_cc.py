"""Unit tests for congestion-control algorithms."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tcp.cc import make_congestion_control
from repro.tcp.cc.base import CongestionControl, MIN_CWND
from repro.tcp.cc.cubic import Cubic
from repro.tcp.cc.reno import Reno

MSS = 1460


class TestFactory:
    def test_builds_reno(self):
        assert isinstance(make_congestion_control("reno", 10, MSS), Reno)

    def test_builds_cubic(self):
        assert isinstance(make_congestion_control("cubic", 10, MSS), Cubic)

    def test_unknown_name_rejected(self):
        with pytest.raises(
            ValueError, match=r"unknown congestion control 'bbr' \(known: cubic, reno\)"
        ):
            make_congestion_control("bbr", 10, MSS)


class TestCommonBehaviour:
    @pytest.mark.parametrize("algo", ["reno", "cubic"])
    def test_initial_window_respected(self, algo):
        cc = make_congestion_control(algo, 42, MSS)
        assert cc.cwnd_segments == 42
        assert cc.initial_cwnd == 42

    @pytest.mark.parametrize("algo", ["reno", "cubic"])
    def test_starts_in_slow_start(self, algo):
        assert make_congestion_control(algo, 10, MSS).in_slow_start

    @pytest.mark.parametrize("algo", ["reno", "cubic"])
    def test_slow_start_doubles_per_window(self, algo):
        cc = make_congestion_control(algo, 10, MSS)
        cc.on_ack(now=0.0, acked_bytes=10 * MSS, rtt=0.1)
        assert cc.cwnd == pytest.approx(20.0)

    @pytest.mark.parametrize("algo", ["reno", "cubic"])
    def test_rto_collapses_to_one_segment(self, algo):
        cc = make_congestion_control(algo, 100, MSS)
        cc.on_retransmit_timeout(now=1.0)
        assert cc.cwnd == 1.0
        assert cc.ssthresh < math.inf

    @pytest.mark.parametrize("algo", ["reno", "cubic"])
    def test_cwnd_segments_never_below_one(self, algo):
        cc = make_congestion_control(algo, 1, MSS)
        cc.on_retransmit_timeout(now=0.0)
        assert cc.cwnd_segments >= 1

    @pytest.mark.parametrize("algo", ["reno", "cubic"])
    def test_invalid_initial_window_rejected(self, algo):
        with pytest.raises(ValueError):
            make_congestion_control(algo, 0, MSS)

    def test_invalid_mss_rejected(self):
        with pytest.raises(ValueError):
            Reno(initial_cwnd=10, mss=0)


class TestReno:
    def test_loss_halves_window(self):
        cc = Reno(initial_cwnd=10, mss=MSS)
        cc.cwnd = 40.0
        cc.on_loss_event(now=1.0)
        assert cc.ssthresh == pytest.approx(20.0)
        cc.after_recovery()
        assert cc.cwnd == pytest.approx(20.0)

    def test_ssthresh_floor(self):
        cc = Reno(initial_cwnd=2, mss=MSS)
        cc.cwnd = 2.0
        cc.on_loss_event(now=1.0)
        assert cc.ssthresh == MIN_CWND

    def test_congestion_avoidance_linear_growth(self):
        cc = Reno(initial_cwnd=10, mss=MSS)
        cc.cwnd = 20.0
        cc.ssthresh = 10.0  # force congestion avoidance
        for _ in range(20):  # one full window of acks
            cc.on_ack(now=0.0, acked_bytes=MSS, rtt=0.1)
        assert cc.cwnd == pytest.approx(21.0, rel=0.01)

    def test_slow_start_exits_at_ssthresh(self):
        cc = Reno(initial_cwnd=10, mss=MSS)
        cc.ssthresh = 15.0
        cc.on_ack(now=0.0, acked_bytes=10 * MSS, rtt=0.1)
        assert cc.cwnd == pytest.approx(15.0)
        assert not cc.in_slow_start


class TestCubic:
    def test_loss_applies_beta(self):
        cc = Cubic(initial_cwnd=10, mss=MSS)
        cc.cwnd = 100.0
        cc.on_loss_event(now=1.0)
        assert cc.ssthresh == pytest.approx(70.0)

    def test_fast_convergence_lowers_wmax(self):
        cc = Cubic(initial_cwnd=10, mss=MSS)
        cc.cwnd = 100.0
        cc.on_loss_event(now=1.0)
        first_wmax = cc._w_max
        cc.cwnd = 60.0  # lost again before regaining the peak
        cc.on_loss_event(now=2.0)
        assert cc._w_max < first_wmax

    def test_concave_growth_toward_wmax(self):
        """After a loss, cwnd approaches the previous maximum and plateaus."""
        cc = Cubic(initial_cwnd=10, mss=MSS)
        cc.cwnd = 100.0
        cc.on_loss_event(now=0.0)
        cc.after_recovery()
        start = cc.cwnd
        now = 0.0
        for _ in range(200):
            now += 0.01
            cc.on_ack(now=now, acked_bytes=MSS, rtt=0.01)
        assert cc.cwnd > start
        # Should be pulled toward w_max=100, not explode past it quickly.
        assert cc.cwnd < 130.0

    def test_growth_accelerates_past_plateau(self):
        """Beyond K the cubic function turns convex (probing region)."""
        cc = Cubic(initial_cwnd=10, mss=MSS)
        cc.cwnd = 50.0
        cc.on_loss_event(now=0.0)
        cc.after_recovery()
        now, window_history = 0.0, []
        for _ in range(4000):
            now += 0.01
            cc.on_ack(now=now, acked_bytes=MSS, rtt=0.01)
            window_history.append(cc.cwnd)
        assert window_history[-1] > 50.0  # eventually exceeds old peak


@given(
    algo=st.sampled_from(["reno", "cubic"]),
    initial=st.integers(min_value=1, max_value=300),
    acks=st.lists(st.integers(min_value=1, max_value=10 * MSS), max_size=50),
)
def test_window_stays_positive_and_finite(algo, initial, acks):
    cc = make_congestion_control(algo, initial, MSS)
    now = 0.0
    for i, acked in enumerate(acks):
        now += 0.01
        cc.on_ack(now=now, acked_bytes=acked, rtt=0.01)
        if i % 7 == 3:
            cc.on_loss_event(now=now)
            cc.after_recovery()
        if i % 11 == 5:
            cc.on_retransmit_timeout(now=now)
        assert cc.cwnd_segments >= 1
        assert math.isfinite(cc.cwnd)
