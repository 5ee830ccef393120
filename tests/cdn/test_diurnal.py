"""Tests for diurnal rate profiles and their effect on workloads."""

import pytest

from repro.cdn.diurnal import ConstantProfile, OnOffProfile, RateProfile
from repro.cdn.filesizes import FileSizeDistribution
from repro.cdn.transfer import TransferClient, TransferServer
from repro.cdn.workload import OrganicWorkload, OrganicWorkloadConfig
from repro.testing import TwoHostTestbed


class _Scaled(RateProfile):
    """A constant rate multiplier other than 1."""

    def __init__(self, value: float) -> None:
        self.value = value

    def factor(self, now: float) -> float:
        return self.value

    @property
    def max_factor(self) -> float:
        return self.value


class TestProfiles:
    def test_constant_profile(self):
        profile = ConstantProfile()
        assert profile.factor(0.0) == 1.0
        assert profile.factor(1e6) == 1.0
        assert profile.max_factor == 1.0

    def test_on_off_cycles(self):
        profile = OnOffProfile(on_duration=10.0, off_duration=5.0)
        assert profile.factor(0.0) == 1.0
        assert profile.factor(9.9) == 1.0
        assert profile.factor(10.1) == 0.0
        assert profile.factor(14.9) == 0.0
        assert profile.factor(15.1) == 1.0

    def test_on_off_validation(self):
        with pytest.raises(ValueError):
            OnOffProfile(on_duration=0.0, off_duration=1.0)


class TestWorkloadModulation:
    def make_workload(self, profile, rate=20.0):
        bed = TwoHostTestbed(rtt=0.010)
        TransferServer(bed.server)
        client = TransferClient(bed.client)
        workload = OrganicWorkload(
            sim=bed.sim,
            client=client,
            destinations=[bed.server.address],
            sizes=FileSizeDistribution.production_cdn(),
            rng=bed.streams.stream("wl"),
            config=OrganicWorkloadConfig(rate_per_second=rate, max_object_bytes=20_000),
            rate_profile=profile,
        )
        return bed, workload

    def test_on_off_valley_is_silent(self):
        bed, workload = self.make_workload(
            OnOffProfile(on_duration=10.0, off_duration=10.0)
        )
        workload.start()
        bed.sim.run(until=10.0)
        at_peak_end = workload.transfers_issued
        assert at_peak_end > 50
        bed.sim.run(until=19.5)
        assert workload.transfers_issued == at_peak_end  # valley: nothing
        bed.sim.run(until=30.0)
        assert workload.transfers_issued > at_peak_end  # next peak resumes

    def test_half_rate_profile_halves_arrivals(self):
        _, full_workload = self.make_workload(ConstantProfile(), rate=50.0)
        bed_full = full_workload._sim
        full_workload.start()
        bed_full.run(until=20.0)

        _, half_workload = self.make_workload(_Scaled(0.5), rate=50.0)
        bed_half = half_workload._sim
        half_workload.start()
        bed_half.run(until=20.0)

        ratio = half_workload.transfers_issued / max(full_workload.transfers_issued, 1)
        assert 0.35 < ratio < 0.65

    def test_zero_profile_generates_nothing(self):
        bed, workload = self.make_workload(_Scaled(0.0))
        workload.start()
        bed.sim.run(until=20.0)
        assert workload.transfers_issued == 0
