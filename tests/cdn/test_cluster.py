"""Unit/integration tests for cluster assembly and monitors."""

import pytest

from repro.cdn.cluster import CdnCluster, ClusterConfig, with_riptide_config
from repro.cdn.monitors import CwndSampler
from repro.cdn.topology import Topology, build_paper_topology
from repro.core.config import RiptideConfig


def topology(codes=("LHR", "JFK", "NRT")):
    full = build_paper_topology()
    return Topology(pops=tuple(p for p in full.pops if p.code in codes))


@pytest.fixture
def cluster():
    return CdnCluster(topology(), ClusterConfig(seed=3))


class TestAssembly:
    def test_hosts_per_pop(self, cluster):
        assert len(cluster.hosts("LHR")) == 2
        assert len(cluster.all_hosts()) == 6

    def test_pop_codes(self, cluster):
        assert set(cluster.pop_codes) == {"LHR", "JFK", "NRT"}

    def test_unknown_pop_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster.hosts("XXX")

    def test_server_addresses_in_pop_prefix(self, cluster):
        pop = cluster.pop("LHR")
        assert pop.prefix.contains(cluster.server_address("LHR"))

    def test_agents_created_but_stopped(self, cluster):
        agents = cluster.all_agents()
        assert len(agents) == 6
        assert not any(agent.running for agent in agents)

    def test_trunks_fully_meshed(self, cluster):
        pops = [cluster.pop(c) for c in cluster.pop_codes]
        for i, a in enumerate(pops):
            for b in pops[i + 1 :]:
                assert cluster.network.trunk_between(a.prefix, b.prefix) is not None


class TestRiptideControl:
    def test_start_riptide_starts_all_agents(self, cluster):
        cluster.start_riptide()
        assert all(agent.running for agent in cluster.all_agents())

    def test_riptide_learns_from_organic_traffic(self, cluster):
        cluster.add_organic_workload("LHR", ["JFK"])
        cluster.start_riptide()
        cluster.run(20.0)
        agent = cluster.agents("LHR")[0]
        assert len(agent.learned_table()) > 0

    def test_with_riptide_config_override(self):
        config = with_riptide_config(ClusterConfig(), c_max=42)
        assert config.riptide.c_max == 42


class TestWorkloadWiring:
    def test_organic_workload_runs(self, cluster):
        workload = cluster.add_organic_workload("LHR", ["JFK", "NRT"])
        cluster.run(10.0)
        assert workload.transfers_issued > 0
        assert workload.transfers_completed > 0

    def test_self_destination_excluded(self, cluster):
        workload = cluster.add_organic_workload("LHR", ["LHR", "JFK"])
        lhr_prefix = cluster.pop("LHR").prefix
        assert all(
            not lhr_prefix.contains(d) for d in workload._destinations
        )

    def test_run_advances_clock(self, cluster):
        before = cluster.sim.now
        cluster.run(5.0)
        assert cluster.sim.now == before + 5.0


class TestCwndSampler:
    def test_samples_established_connections(self, cluster):
        cluster.add_organic_workload("LHR", ["JFK"])
        cluster.run(5.0)
        sampler = cluster.make_cwnd_sampler(interval=1.0)
        sampler.start()
        cluster.run(10.0)
        assert len(sampler.samples) > 0
        assert all(s.cwnd >= 1 for s in sampler.samples)

    def test_created_after_filters(self, cluster):
        cluster.add_organic_workload("LHR", ["JFK"])
        cluster.run(5.0)
        sampler = cluster.make_cwnd_sampler(
            interval=1.0, created_after=cluster.sim.now + 1e9
        )
        sampler.start()
        cluster.run(5.0)
        assert sampler.samples == []

    def test_pop_scoped_sampler(self, cluster):
        cluster.add_organic_workload("LHR", ["JFK"])
        cluster.run(5.0)
        sampler = cluster.make_cwnd_sampler(interval=1.0, pop_codes=["NRT"])
        sampler.start()
        cluster.run(5.0)
        assert all(s.host_name.startswith("NRT") for s in sampler.samples)

    def test_sampler_requires_hosts(self, cluster):
        with pytest.raises(ValueError):
            CwndSampler(cluster.sim, [], interval=1.0)

    def test_stop_sampling(self, cluster):
        cluster.add_organic_workload("LHR", ["JFK"])
        sampler = cluster.make_cwnd_sampler(interval=1.0)
        sampler.start()
        cluster.run(5.0)
        sampler.stop()
        count = len(sampler.samples)
        cluster.run(5.0)
        assert len(sampler.samples) == count
