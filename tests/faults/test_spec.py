"""Validation and timeline semantics of the declarative fault specs."""

import pytest

from repro.faults.spec import (
    AGENT_RESTART_AFTER,
    AgentCrash,
    FaultSchedule,
    FaultSpecError,
    IpToolFault,
    LinkDegrade,
    LinkFlap,
    LossStorm,
    PollJitter,
    PopPartition,
    SsFault,
)


class TestSpecValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultSpecError, match="time"):
            PopPartition(pop="LHR", at=-1.0, duration=5.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(FaultSpecError, match="duration"):
            LinkFlap(pop_a="LHR", pop_b="JFK", at=0.0, duration=0.0)

    def test_flap_endpoints_must_differ(self):
        with pytest.raises(FaultSpecError, match="endpoints"):
            LinkFlap(pop_a="LHR", pop_b="LHR", at=0.0, duration=1.0)

    def test_degrade_must_degrade_something(self):
        with pytest.raises(FaultSpecError, match="degrades nothing"):
            LinkDegrade(pop_a="LHR", pop_b="JFK", at=0.0, duration=1.0)

    def test_degrade_bandwidth_scale_range(self):
        with pytest.raises(FaultSpecError, match="bandwidth_scale"):
            LinkDegrade(
                pop_a="LHR",
                pop_b="JFK",
                at=0.0,
                duration=1.0,
                bandwidth_scale=1.5,
            )
        with pytest.raises(FaultSpecError, match="bandwidth_scale"):
            LinkDegrade(
                pop_a="LHR",
                pop_b="JFK",
                at=0.0,
                duration=1.0,
                bandwidth_scale=0.0,
            )

    def test_degrade_extra_delay_nan_rejected(self):
        with pytest.raises(FaultSpecError, match="extra_delay"):
            LinkDegrade(
                pop_a="LHR",
                pop_b="JFK",
                at=0.0,
                duration=1.0,
                extra_delay=float("nan"),
            )

    def test_storm_probability_range(self):
        with pytest.raises(FaultSpecError, match="loss_probability"):
            LossStorm(pop="JFK", at=0.0, duration=1.0, loss_probability=0.0)
        with pytest.raises(FaultSpecError, match="loss_probability"):
            LossStorm(pop="JFK", at=0.0, duration=1.0, loss_probability=1.0)

    def test_ss_fault_unknown_mode(self):
        with pytest.raises(FaultSpecError, match="unknown ss fault mode"):
            SsFault(pop="LHR", at=0.0, duration=1.0, mode="explode")

    def test_ss_fault_known_modes(self):
        for mode in ("error", "empty", "stale", "partial"):
            SsFault(pop="LHR", at=0.0, duration=1.0, mode=mode)

    def test_jitter_amplitude_positive(self):
        with pytest.raises(FaultSpecError, match="amplitude"):
            PollJitter(pop="LHR", at=0.0, duration=1.0, amplitude=0.0)


class TestSchedule:
    def test_rejects_non_specs(self):
        with pytest.raises(FaultSpecError, match="FaultSpec"):
            FaultSchedule(specs=("not a fault",))

    def test_crash_end_time_covers_the_restart(self):
        assert AgentCrash(pop="LHR", at=30.0).clear_at == 30.0 + AGENT_RESTART_AFTER

    def test_timeline_sorted_by_injection_time(self):
        late = IpToolFault(pop="LHR", at=9.0, duration=1.0)
        early = PopPartition(pop="JFK", at=1.0, duration=1.0)
        schedule = FaultSchedule(specs=(late, early))
        assert schedule.timeline() == [early, late]

    def test_describe_mentions_every_fault(self):
        schedule = FaultSchedule(
            specs=(
                LinkFlap(pop_a="LHR", pop_b="JFK", at=1.0, duration=2.0),
                LossStorm(pop="JFK", at=3.0, duration=4.0),
            )
        )
        text = schedule.describe()
        assert "link_flap" in text and "loss_storm" in text

    def test_len_and_iter(self):
        specs = (
            PopPartition(pop="LHR", at=0.0, duration=1.0),
            IpToolFault(pop="JFK", at=1.0, duration=1.0),
        )
        schedule = FaultSchedule(specs=specs)
        assert len(schedule) == 2
        assert tuple(schedule) == specs
