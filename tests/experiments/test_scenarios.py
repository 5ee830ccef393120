"""Tests for the shared simulation scenarios (small scale)."""

import pytest

from repro.experiments.scenarios import (
    EVALUATION_POP_CODES,
    ProbeStudyConfig,
    run_paired_probe_study,
    sub_topology,
)


def small_config(**overrides) -> ProbeStudyConfig:
    defaults = dict(
        topology_codes=("LHR", "JFK", "NRT"),
        warmup=10.0,
        duration=20.0,
        probe_interval=5.0,
    )
    defaults.update(overrides)
    return ProbeStudyConfig(**defaults)


class TestSubTopology:
    def test_selects_requested_pops(self):
        topo = sub_topology(("LHR", "JFK"))
        assert {p.code for p in topo.pops} == {"LHR", "JFK"}

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            sub_topology(("LHR", "XXX"))

    def test_evaluation_codes_cover_all_buckets(self):
        """The default sub-topology spans every Figure 12-14 RTT bucket
        from the EU vantage point."""
        from repro.cdn.transfer import rtt_bucket

        topo = sub_topology(EVALUATION_POP_CODES)
        origin = next(pop for pop in topo.pops if pop.code == "LHR")
        buckets = {
            rtt_bucket(topo.rtt(origin, pop)) for pop in topo.pops if pop is not origin
        }
        assert buckets == {"<50ms", "51-100ms", "101-150ms", ">150ms"}


class TestPairedStudy:
    @pytest.fixture(scope="class")
    def pair(self):
        return run_paired_probe_study(small_config())

    def test_both_arms_produce_probes(self, pair):
        control, riptide = pair
        assert len(control.fleet.completed_results()) > 0
        assert len(riptide.fleet.completed_results()) > 0

    def test_arms_differ_only_in_riptide(self, pair):
        control, riptide = pair
        assert not control.riptide_enabled
        assert riptide.riptide_enabled
        assert not any(a.running for a in control.cluster.all_agents())
        assert all(a.running for a in riptide.cluster.all_agents())

    def test_riptide_arm_learns_routes(self, pair):
        _, riptide = pair
        learned = sum(
            len(agent.learned_table()) for agent in riptide.cluster.all_agents()
        )
        assert learned > 0

    def test_riptide_improves_100kb_probes(self, pair):
        control, riptide = pair
        control_times = control.fleet.completion_times(
            size_bytes=100_000, new_connections_only=True
        )
        riptide_times = riptide.fleet.completion_times(
            size_bytes=100_000, new_connections_only=True
        )
        assert control_times and riptide_times
        control_mean = sum(control_times) / len(control_times)
        riptide_mean = sum(riptide_times) / len(riptide_times)
        assert riptide_mean < control_mean
