"""Unit tests for the window-policy zoo (``repro.policy``)."""

import pytest

from repro.core.combiners import make_combiner
from repro.core.config import RiptideConfig
from repro.core.history import EwmaHistory
from repro.net.addresses import Prefix
from repro.policy.base import finalize_window
from repro.policy.learners import EwmaPolicy, PercentilePolicy, RttClassPolicy
from repro.policy.registry import make_policy, policy_names
from repro.policy.tunable import TunablePolicy
from repro.policy.zoo import HOST_CLASS_WINDOWS, HostClassStaticPolicy, StaticPolicy
from tests.rows import ss_row

DEST = Prefix.parse("10.2.0.0/16")
OTHER = Prefix.parse("10.3.0.0/16")


def obs(*cwnds, srtt=None):
    return [ss_row(c, srtt=srtt) for c in cwnds]


class TestRegistry:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("nope", RiptideConfig())
        with pytest.raises(ValueError, match="unknown policy"):
            RiptideConfig(policy="nope")

    def test_every_name_instantiates_and_decides(self):
        config = RiptideConfig()
        for name in policy_names():
            policy = make_policy(name, config)
            assert policy.name == name
            value = policy.decide(DEST, obs(20, 30), now=1.0)
            assert value >= 1.0


class TestStaticPolicies:
    def test_static_window_is_constant(self):
        policy = StaticPolicy(16)
        assert policy.name == "iw16"
        assert policy.decide(DEST, obs(90, 95), now=0.0) == 16.0
        assert policy.decide(OTHER, obs(1), now=99.0) == 16.0

    def test_static_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StaticPolicy(0)

    def test_hostclass_split_is_deterministic(self):
        policy = HostClassStaticPolicy()
        # 10.2/16: even second octet -> edge; 10.3/16: odd -> origin.
        assert policy.classify(DEST) == "edge"
        assert policy.classify(OTHER) == "origin"
        assert policy.decide(DEST, obs(50), now=0.0) == float(
            HOST_CLASS_WINDOWS["edge"]
        )
        assert policy.decide(OTHER, obs(50), now=0.0) == float(
            HOST_CLASS_WINDOWS["origin"]
        )


class TestEwmaPolicy:
    def test_matches_manual_pipeline(self):
        # The refactored policy must reproduce the pre-refactor agent
        # arithmetic exactly: combine -> EWMA history update.
        config = RiptideConfig(alpha=0.7)
        policy = EwmaPolicy(config)
        combiner = make_combiner(config.combiner)
        history = EwmaHistory(config.alpha)
        streams = [obs(40, 60), obs(80), obs(10), obs(12, 14, 16), obs(90)]
        now = 0.0
        for samples in streams:
            now += 1.0
            expected = history.update(DEST, combiner.combine(samples))
            assert policy.decide(DEST, samples, now) == expected

    def test_forget_restarts_history(self):
        policy = EwmaPolicy(RiptideConfig(alpha=0.5))
        policy.decide(DEST, obs(100), now=0.0)
        smoothed = policy.decide(DEST, obs(50), now=1.0)
        assert smoothed == 75.0
        policy.forget(DEST)
        assert policy.decide(DEST, obs(50), now=2.0) == 50.0

    def test_reset_drops_every_destination(self):
        policy = EwmaPolicy(RiptideConfig(alpha=0.5))
        policy.decide(DEST, obs(100), now=0.0)
        policy.decide(OTHER, obs(80), now=0.0)
        policy.reset()
        assert policy.decide(DEST, obs(10), now=1.0) == 10.0
        assert policy.decide(OTHER, obs(10), now=1.0) == 10.0


class TestPercentilePolicy:
    def test_percentile_of_sampled_windows(self):
        policy = PercentilePolicy(90.0)
        assert policy.name == "p90"
        value = policy.decide(DEST, obs(*range(1, 11)), now=0.0)
        # rounded_rank over 1..10 at p90: index round(.9*9)=8 -> 9.
        assert value == 9.0

    def test_keeps_per_destination_samples(self):
        policy = PercentilePolicy(75.0)
        policy.decide(DEST, obs(100, 100, 100), now=0.0)
        assert policy.decide(OTHER, obs(10), now=1.0) == 10.0
        assert policy.decide(DEST, obs(100), now=2.0) == 100.0

    def test_sample_window_bounds_memory(self):
        policy = PercentilePolicy(100.0)
        window = PercentilePolicy.SAMPLE_WINDOW
        policy.decide(DEST, obs(*[500] * window), now=0.0)
        # A window's worth of newer, smaller samples must evict all the 500s.
        assert policy.decide(DEST, obs(*[7] * window), now=1.0) == 7.0

    def test_forget(self):
        policy = PercentilePolicy(90.0)
        policy.decide(DEST, obs(100), now=0.0)
        policy.forget(DEST)
        assert policy.decide(DEST, obs(5), now=1.0) == 5.0

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            PercentilePolicy(0.0)
        with pytest.raises(ValueError):
            PercentilePolicy(101.0)


class TestRttClassPolicy:
    def test_short_rtt_tightens_the_cap(self):
        policy = RttClassPolicy(RiptideConfig())
        value = policy.decide(DEST, obs(90, 90, srtt=0.02), now=0.0)
        assert value == 25.0
        assert policy.cap_for(DEST) == 25

    def test_medium_rtt_cap(self):
        policy = RttClassPolicy(RiptideConfig())
        assert policy.decide(DEST, obs(90, srtt=0.1), now=0.0) == 50.0

    def test_long_rtt_keeps_configured_cmax(self):
        policy = RttClassPolicy(RiptideConfig())
        assert policy.decide(DEST, obs(90, srtt=0.3), now=0.0) == 90.0

    def test_no_rtt_evidence_keeps_cmax(self):
        config = RiptideConfig()
        policy = RttClassPolicy(config)
        assert policy.cap_for(DEST) == config.c_max
        assert policy.decide(DEST, obs(90), now=0.0) == 90.0

    def test_forget_drops_rtt_state(self):
        policy = RttClassPolicy(RiptideConfig())
        policy.decide(DEST, obs(90, srtt=0.02), now=0.0)
        policy.forget(DEST)
        assert policy.cap_for(DEST) == RiptideConfig().c_max


class TestTunablePolicy:
    def test_cap_knob_bounds_decisions(self):
        policy = TunablePolicy(RiptideConfig())
        for _ in range(3):
            policy.on_guard_trip(DEST, "loss_spike", now=0.0)
        assert policy.decide(DEST, obs(90), now=0.0) == 12.5

    def test_guard_trip_backs_the_cap_off(self):
        policy = TunablePolicy(RiptideConfig())
        policy.on_guard_trip(DEST, "loss_spike", now=0.0)
        assert policy._cap == 50.0
        policy.on_guard_trip(DEST, "loss_spike", now=1.0)
        assert policy._cap == 25.0

    def test_cap_floors_at_cmin(self):
        policy = TunablePolicy(RiptideConfig())
        for i in range(10):
            policy.on_guard_trip(DEST, "loss_spike", now=float(i))
        assert policy._cap == float(RiptideConfig().c_min)

    def test_trip_free_operation_recovers_the_cap(self):
        policy = TunablePolicy(RiptideConfig())
        policy.on_guard_trip(DEST, "loss_spike", now=0.0)
        assert policy._cap == 50.0
        policy.decide(DEST, obs(90), now=25.0)
        # Two recovery intervals elapsed -> two additive steps of 4.
        assert policy._cap == 58.0

    def test_reset_restores_defaults(self):
        policy = TunablePolicy(RiptideConfig())
        policy.on_guard_trip(DEST, "loss_spike", now=0.0)
        policy.reset()
        assert policy._cap == float(RiptideConfig().c_max)


class TestFinalizeWindow:
    def test_clamps_and_reports_bound(self):
        config = RiptideConfig(c_min=10, c_max=100)
        assert finalize_window(config, 150.0, 1.0) == (100, "c_max")
        assert finalize_window(config, 3.0, 1.0) == (10, "c_min")
        assert finalize_window(config, 55.4, 1.0) == (55, None)

    def test_advisory_scales_the_clamped_window(self):
        config = RiptideConfig(c_min=10, c_max=100)
        # 150 clamps to 100, then scales to 50 — not round(150 * 0.5).
        assert finalize_window(config, 150.0, 0.5) == (50, "c_max")
        # Scaling floors at c_min.
        assert finalize_window(config, 12.0, 0.25) == (10, None)
