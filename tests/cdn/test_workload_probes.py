"""Unit tests for organic workloads and the probe fleet."""

import pytest

from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.cdn.filesizes import FileSizeDistribution
from repro.cdn.probes import PAPER_PROBE_SIZES
from repro.cdn.topology import build_paper_topology
from repro.cdn.transfer import TransferClient, TransferServer, rtt_bucket
from repro.cdn.workload import OrganicWorkload, OrganicWorkloadConfig
from repro.testing import TwoHostTestbed


def small_cluster(seed: int = 7) -> CdnCluster:
    full = build_paper_topology()
    from repro.cdn.topology import Topology

    topo = Topology(
        pops=tuple(p for p in full.pops if p.code in ("LHR", "JFK", "NRT"))
    )
    return CdnCluster(topo, ClusterConfig(seed=seed))


class TestRttBuckets:
    @pytest.mark.parametrize(
        "rtt,expected",
        [
            (0.010, "<50ms"),
            (0.050, "<50ms"),
            (0.051, "51-100ms"),
            (0.100, "51-100ms"),
            (0.149, "101-150ms"),
            (0.151, ">150ms"),
            (0.500, ">150ms"),
        ],
    )
    def test_bucketing(self, rtt, expected):
        assert rtt_bucket(rtt) == expected


class TestOrganicWorkload:
    def test_generates_transfers(self):
        bed = TwoHostTestbed(rtt=0.050)
        TransferServer(bed.server)
        client = TransferClient(bed.client)
        workload = OrganicWorkload(
            sim=bed.sim,
            client=client,
            destinations=[bed.server.address],
            sizes=FileSizeDistribution.production_cdn(),
            rng=bed.streams.stream("wl"),
            config=OrganicWorkloadConfig(rate_per_second=10.0, max_object_bytes=200_000),
        )
        workload.start()
        bed.sim.run(until=10.0)
        assert workload.transfers_issued > 50
        assert workload.transfers_completed > 40
        assert workload.bytes_fetched > 0

    def test_stop_halts_arrivals(self):
        bed = TwoHostTestbed(rtt=0.050)
        TransferServer(bed.server)
        client = TransferClient(bed.client)
        workload = OrganicWorkload(
            sim=bed.sim,
            client=client,
            destinations=[bed.server.address],
            sizes=FileSizeDistribution.production_cdn(),
            rng=bed.streams.stream("wl"),
            config=OrganicWorkloadConfig(rate_per_second=10.0),
        )
        workload.start()
        bed.sim.run(until=2.0)
        workload.stop()
        issued = workload.transfers_issued
        bed.sim.run(until=10.0)
        assert workload.transfers_issued == issued

    def test_churn_closes_connections(self):
        bed = TwoHostTestbed(rtt=0.010)
        TransferServer(bed.server)
        client = TransferClient(bed.client)
        workload = OrganicWorkload(
            sim=bed.sim,
            client=client,
            destinations=[bed.server.address],
            sizes=FileSizeDistribution.production_cdn(),
            rng=bed.streams.stream("wl"),
            config=OrganicWorkloadConfig(
                rate_per_second=5.0, close_probability=1.0, max_object_bytes=50_000
            ),
        )
        workload.start()
        bed.sim.run(until=10.0)
        # Every completed transfer closed its connection, so every new
        # transfer opened a new one.
        assert client.connections_opened >= workload.transfers_completed

    def test_requires_destinations(self):
        bed = TwoHostTestbed()
        client = TransferClient(bed.client)
        with pytest.raises(ValueError):
            OrganicWorkload(
                sim=bed.sim,
                client=client,
                destinations=[],
                sizes=FileSizeDistribution.production_cdn(),
                rng=bed.streams.stream("wl"),
            )

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            OrganicWorkloadConfig(rate_per_second=0)
        with pytest.raises(ValueError):
            OrganicWorkloadConfig(close_probability=1.5)


class TestProbeFleet:
    def test_rounds_issue_all_combinations(self):
        cluster = small_cluster()
        fleet = cluster.make_probe_fleet(["LHR"], interval=5.0)
        fleet.start(initial_delay=0.0)
        cluster.run(1.0)
        # 1 source, 2 targets (JFK, NRT; self excluded), 3 sizes.
        assert len(fleet.results) == 2 * 3

    def test_probes_complete_and_bucket(self):
        cluster = small_cluster()
        fleet = cluster.make_probe_fleet(["LHR"], interval=5.0)
        fleet.start(initial_delay=0.0)
        cluster.run(4.9)  # one round only (next fires at t=5)
        completed = fleet.completed_results()
        assert len(completed) == 6
        for probe in completed:
            assert probe.bucket in ("<50ms", "51-100ms", "101-150ms", ">150ms")
            assert probe.total_time > 0

    def test_size_filter(self):
        cluster = small_cluster()
        fleet = cluster.make_probe_fleet(["LHR"], interval=5.0)
        fleet.start(initial_delay=0.0)
        cluster.run(4.9)
        for size in PAPER_PROBE_SIZES:
            subset = fleet.completed_results(size_bytes=size)
            assert all(p.size_bytes == size for p in subset)
            assert len(subset) == 2

    def test_source_pop_filter(self):
        cluster = small_cluster()
        fleet = cluster.make_probe_fleet(["LHR", "JFK"], interval=5.0)
        fleet.start(initial_delay=0.0)
        cluster.run(8.0)
        lhr_only = fleet.completed_results(source_pop="LHR")
        assert all(p.source_pop == "LHR" for p in lhr_only)

    def test_second_round_reuses_connections(self):
        cluster = small_cluster()
        fleet = cluster.make_probe_fleet(["LHR"], interval=5.0)
        fleet.start(initial_delay=0.0)
        cluster.run(12.0)
        first_round = fleet.results[:6]
        second_round = fleet.results[6:12]
        assert all(p.new_connection for p in first_round)
        assert not any(p.new_connection for p in second_round)

    def test_close_before_round_forces_new_connections(self):
        cluster = small_cluster()
        fleet = cluster.make_probe_fleet(
            ["LHR"], interval=5.0, close_before_round=True
        )
        fleet.start(initial_delay=0.0)
        cluster.run(12.0)
        assert all(p.new_connection for p in fleet.results)

    def test_start_requires_sources_and_targets(self):
        cluster = small_cluster()
        from repro.cdn.probes import ProbeFleet

        fleet = ProbeFleet(cluster.sim, lambda a, b: 0.1)
        with pytest.raises(ValueError):
            fleet.start()

    def test_churn_requires_rng(self):
        from repro.cdn.probes import ProbeFleet

        cluster = small_cluster()
        with pytest.raises(ValueError):
            ProbeFleet(cluster.sim, lambda a, b: 0.1, churn_probability=0.5)
