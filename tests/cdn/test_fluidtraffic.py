"""Tests for the cluster-side fluid engine (`repro.cdn.fluidtraffic`).

The couplings under test: populations register per (host, destination)
and appear in `ss` polls as synthesized sockets the unchanged Riptide
stack learns from; their offered load pressures the shared trunk; the
link's loss model and outages feed back into the cohort dynamics.
"""

import pytest

from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.cdn.fluidtraffic import FLUID_REMOTE_PORT, FluidTraffic, SS_SAMPLES
from repro.cdn.topology import Topology, build_paper_topology
from repro.cdn.workload import OrganicWorkloadConfig
from repro.core.config import RiptideConfig
from repro.core.kernel_mode import KernelModeAgent
from repro.net.loss import GilbertElliottLoss
from repro.sim.fluid import MAX_WINDOW
from repro.tcp.constants import TcpConfig
from repro.tcp.socket import SocketStats, TcpState


def topology(codes=("LHR", "JFK", "NRT")):
    full = build_paper_topology()
    return Topology(pops=tuple(p for p in full.pops if p.code in codes))


@pytest.fixture
def cluster():
    return CdnCluster(
        topology(),
        ClusterConfig(
            seed=3, tcp=TcpConfig(default_initrwnd=300)
        ),
    )


def add_population(cluster, source="LHR", dest="JFK", flows=50.0, **kwargs):
    engine = cluster.fluid_traffic()
    host = cluster.hosts(source)[0]
    return engine, engine.add_population(
        host, cluster.server_address(dest), target_flows=flows, **kwargs
    )


class TestRegistration:
    def test_population_registers_and_steps(self, cluster):
        engine, pop = add_population(cluster)
        cluster.run(2.0)
        assert engine.steps > 0
        assert pop.steps == engine.steps
        assert engine.total_flows() == pytest.approx(50.0, rel=1e-6)

    def test_rtt_derived_from_trunk(self, cluster):
        _, pop = add_population(cluster)
        trunk = cluster.network.link_from(
            cluster.pop("LHR").prefix, cluster.pop("JFK").prefix
        )
        assert pop.rtt == pytest.approx(
            2.0 * (trunk.propagation_delay + trunk.extra_delay)
        )

    def test_entry_window_is_routed_initcwnd(self, cluster):
        host = cluster.hosts("LHR")[0]
        remote = cluster.server_address("JFK")
        host.ip.route_replace(f"{remote}/32", initcwnd=77)
        _, pop = add_population(cluster)
        assert pop.distribution.quantile(0.5) == 77

    def test_stop_releases_link_pressure(self, cluster):
        engine, _ = add_population(cluster)
        cluster.run(2.0)
        trunk = cluster.network.link_from(
            cluster.pop("LHR").prefix, cluster.pop("JFK").prefix
        )
        assert trunk.fluid_bps > 0.0
        steps = engine.steps
        engine.stop()
        assert trunk.fluid_bps == 0.0
        cluster.run(2.0)
        assert engine.steps == steps

    def test_cluster_helper_adds_per_destination(self, cluster):
        engine = cluster.add_fluid_traffic(
            "LHR", ["JFK", "NRT"], flows_per_destination=10.0
        )
        assert len(engine.populations) == 2
        cluster.run(1.0)
        assert engine.total_flows() == pytest.approx(20.0, rel=1e-6)


class TestSsSynthesis:
    def test_fluid_sockets_visible_in_ss(self, cluster):
        _, pop = add_population(cluster, flows=50.0)
        cluster.run(1.0)
        host = cluster.hosts("LHR")[0]
        stats = host.ss.tcp_info()
        fluid_rows = [s for s in stats if s.remote_port == FLUID_REMOTE_PORT]
        assert len(fluid_rows) == SS_SAMPLES
        row = fluid_rows[0]
        assert row.state is TcpState.ESTABLISHED
        assert row.remote_address == cluster.server_address("JFK")
        assert row.cwnd >= 1
        assert row.srtt == pytest.approx(pop.rtt)

    def test_small_cohort_contributes_few_rows(self, cluster):
        add_population(cluster, flows=2.0)
        cluster.run(1.0)
        host = cluster.hosts("LHR")[0]
        rows = [
            s for s in host.ss.tcp_info()
            if s.remote_port == FLUID_REMOTE_PORT
        ]
        # A two-flow cohort weighs like two sockets, not ss_samples.
        assert len(rows) == 2

    def test_counters_split_across_samples(self, cluster):
        _, pop = add_population(cluster, flows=50.0)
        cluster.run(5.0)
        host = cluster.hosts("LHR")[0]
        rows = [
            s for s in host.ss.tcp_info()
            if s.remote_port == FLUID_REMOTE_PORT
        ]
        total_sent = sum(s.segments_sent for s in rows)
        assert total_sent == pytest.approx(pop.segments_sent_total, rel=0.05)
        assert all(s.bytes_acked > 0 for s in rows)

    def test_agent_learns_from_fluid_only(self, cluster):
        """The end-to-end claim: an unchanged Riptide agent learns
        windows from a purely fluid background."""
        host = cluster.hosts("LHR")[0]
        remote = cluster.server_address("JFK")
        engine = cluster.fluid_traffic()
        engine.add_population(
            host, remote, target_flows=100.0,
            growth_segments_per_sec=40.0, churn_per_flow_per_sec=0.5,
        )
        cluster.start_riptide()
        cluster.run(20.0)
        agent = cluster.agents("LHR")[0]
        learned = dict(agent.learned_table().windows())
        assert learned, "agent learned nothing from fluid cohorts"
        assert all(w >= 10 for w in learned.values())


# ----------------------------------------------------------------------
# ss rows, differentially against the keyword-built reference
# ----------------------------------------------------------------------


def keyword_socket_row(sock):
    """PR 14's ``TcpSocket.stats_snapshot``, verbatim: one keyword per field."""
    return SocketStats(
        local_port=sock.local_port,
        remote_address=sock.remote_address,
        remote_port=sock.remote_port,
        state=sock.state,
        cwnd=sock.cc.cwnd_segments,
        ssthresh=sock.cc.ssthresh,
        initial_cwnd=sock.cc.initial_cwnd,
        srtt=sock._rtt.srtt,
        bytes_acked=sock.bytes_acked,
        bytes_received=sock.bytes_received,
        segments_sent=sock.segments_sent,
        segments_retransmitted=sock.segments_retransmitted,
        created_at=sock.created_at,
        established_at=sock.established_at,
        last_activity_at=sock.last_activity_at,
        is_client=sock.is_client,
    )


def keyword_fluid_rows(engine, host):
    """PR 14's ``FluidTraffic.socket_stats_for``, verbatim.

    The sampled windows and ages come from the shipped population;
    ``tests/sim/test_fluid.py`` holds those to their own references.
    """
    indices = engine._by_host.get(host.address)
    if not indices:
        return []
    now = engine._sim.now
    max_samples = SS_SAMPLES
    ssthresh = float(MAX_WINDOW)
    established = TcpState.ESTABLISHED
    snapshots = []
    for index in indices:
        population = engine._populations[index]
        if population.flows <= 0.0:
            continue
        count = min(max_samples, max(1, round(population.flows)))
        remote = engine._pop_remote[index]
        port_base = engine._pop_port_base[index]
        windows = population.distribution.sample_windows(count)
        ages = population.sample_ages(count, now)
        sent_share = int(population.segments_sent_total / count)
        retx_share = int(population.segments_retx_total / count)
        acked_share = int(population.bytes_acked_total / count) + 1
        entry = engine._pop_host[index].initcwnd_for(remote)
        rtt = population.rtt
        is_client = population.is_client
        for i in range(count):
            created = now - ages[i]
            snapshots.append(
                SocketStats(
                    local_port=port_base + i,
                    remote_address=remote,
                    remote_port=FLUID_REMOTE_PORT,
                    state=established,
                    cwnd=windows[i],
                    ssthresh=ssthresh,
                    initial_cwnd=entry,
                    srtt=rtt,
                    bytes_acked=acked_share,
                    bytes_received=0,
                    segments_sent=sent_share,
                    segments_retransmitted=retx_share,
                    created_at=created,
                    established_at=created,
                    last_activity_at=now,
                    is_client=is_client,
                )
            )
    return snapshots


def reference_tcp_info(engine, host, created_after):
    """``SsTool.tcp_info``'s filter, one test per row, over the rows above."""
    snapshots = []
    for sock in host.sockets():
        if sock.state is not TcpState.ESTABLISHED:
            continue
        if created_after is not None and sock.created_at < created_after:
            continue
        snapshots.append(keyword_socket_row(sock))
    for stats in keyword_fluid_rows(engine, host):
        if stats.state is not TcpState.ESTABLISHED:
            continue
        if created_after is not None and stats.created_at < created_after:
            continue
        snapshots.append(stats)
    return snapshots


def as_tuple(row):
    return tuple(getattr(row, name) for name in SocketStats.__slots__)


def as_tuples(rows):
    return [as_tuple(row) for row in rows]


def test_ss_rows_match_keyword_reference_under_every_filter(cluster):
    """Real sockets (both directions, closing ones too) and three fluid
    cohorts — churning outgoing, eternal incoming, a two-flow one — on
    one host, polled with and without ``created_after`` and ``partial``."""
    engine = cluster.fluid_traffic()
    host = cluster.hosts("LHR")[0]
    engine.add_population(
        host, cluster.server_address("JFK"), target_flows=50.0,
        churn_per_flow_per_sec=0.5, is_client=True,
    )
    engine.add_population(host, cluster.server_address("NRT"), target_flows=40.0)
    engine.add_population(
        host, cluster.pop("NRT").server_addresses()[1], target_flows=2.0,
        churn_per_flow_per_sec=0.02, is_client=True,
    )
    workload = OrganicWorkloadConfig(
        rate_per_second=8.0, close_probability=0.5, max_object_bytes=100_000
    )
    cluster.add_organic_workload("LHR", ["JFK", "NRT"], workload)
    cluster.add_organic_workload("JFK", ["LHR"], workload)
    host.ip.route_replace(f"{cluster.server_address('JFK')}/32", initcwnd=33)
    dropped = set()
    for _ in range(6):
        cluster.run(0.7)
        recent = cluster.sim.now - 1.0
        sockets = [keyword_socket_row(sock) for sock in host.sockets()]
        fluid = keyword_fluid_rows(engine, host)
        assert sockets and fluid
        for created_after in (None, recent):
            expected = reference_tcp_info(engine, host, created_after)
            assert as_tuples(host.ss.tcp_info(created_after)) == as_tuples(expected)
            host.ss.set_fault("partial")
            assert as_tuples(host.ss.tcp_info(created_after)) == as_tuples(expected[::2])
            host.ss.clear_fault()
            # Which kind of row the poll left out this round: without
            # ``created_after`` only the unestablished sockets go.
            kept = as_tuples(expected)
            for kind, rows in (("socket", sockets), ("fluid", fluid)):
                if any(as_tuple(row) not in kept for row in rows):
                    dropped.add((created_after is not None, kind))
    # Fluid rows are always established; a recent-only poll drops both kinds.
    assert dropped == {(False, "socket"), (True, "socket"), (True, "fluid")}


# ----------------------------------------------------------------------
# entry windows: resolved when routing changed, against every tick
# ----------------------------------------------------------------------


def entry_pair():
    """One cluster twice: the shipped engine, which re-resolves a cohort's
    entry window only when its host's routing changed, and one that
    re-resolves every cohort on every tick.  LHR's first host carries
    churning cohorts toward JFK and NRT, so every tick refills at the
    entry window."""
    pair = []
    for every_tick in (False, True):
        cluster = CdnCluster(
            topology(),
            ClusterConfig(
                seed=3,
                tcp=TcpConfig(default_initrwnd=300),
                riptide=RiptideConfig(update_interval=0.5, ttl=2.0),
            ),
        )
        engine = cluster.add_fluid_traffic(
            "LHR", ["JFK", "NRT"], flows_per_destination=100.0,
            growth_segments_per_sec=40.0, churn_per_flow_per_sec=0.5,
        )
        if every_tick:
            engine._refresh_entries = engine._resolve_entries
        pair.append(cluster)
    return pair


def cohort_state(population):
    dist = population.distribution
    return (
        list(dist._bin_mass), dist.flows, population.segments_sent_total,
        population.bytes_acked_total, population.offered,
    )


def advance(pair, change=None, ticks=1):
    """Apply ``change`` to both clusters, run ``ticks`` fluid ticks, and
    hold the two engines' entry windows, cohort states and LHR ``ss``
    rows equal after each.  Returns the shipped engine's entry windows."""
    for cluster in pair:
        if change is not None:
            change(cluster)
    for _ in range(ticks):
        for cluster in pair:
            cluster.run(0.25)
        cached, reference = (cluster.fluid for cluster in pair)
        assert cached._pop_entry == reference._pop_entry
        assert [cohort_state(p) for p in cached.populations] == [
            cohort_state(p) for p in reference.populations
        ]
        rows = [as_tuples(cluster.hosts("LHR")[0].ss.tcp_info()) for cluster in pair]
        assert rows[0] == rows[1]
    return pair[0].fluid._pop_entry


def jfk_route(initcwnd):
    def change(cluster):
        cluster.hosts("LHR")[0].ip.route_replace(
            f"{cluster.server_address('JFK')}/32", initcwnd=initcwnd
        )

    return change


class TestEntryWindows:
    def test_route_replace_reaches_the_next_tick(self):
        pair = entry_pair()
        assert advance(pair, ticks=2) == [10, 10]
        assert advance(pair, jfk_route(40)) == [40, 10]
        assert advance(pair, jfk_route(41)) == [41, 10]

    def test_route_expiry_reaches_the_next_tick(self):
        pair = entry_pair()
        for cluster in pair:
            cluster.start_riptide()
        learned = advance(pair, ticks=8)
        assert learned != [10, 10]
        assert advance(pair, lambda cluster: cluster.hosts("LHR")[0].ss.set_fault("empty")) == learned
        expired = False
        for _ in range(12):
            entries = advance(pair)
            agent = pair[0].agents("LHR")[0]
            if agent.stats.routes_expired:
                expired = True
                assert entries == [10, 10]
                break
            assert entries == learned
        assert expired

    def test_reboot_reaches_the_next_tick(self):
        pair = entry_pair()
        assert advance(pair, jfk_route(40)) == [40, 10]
        # The fresh table's first route gives it the version the old
        # table had: only the table's identity tells them apart.
        def reboot_and_route(cluster):
            cluster.hosts("LHR")[0].reboot()
            jfk_route(30)(cluster)

        assert advance(pair, reboot_and_route) == [30, 10]
        assert advance(pair, lambda cluster: cluster.hosts("LHR")[0].reboot()) == [10, 10]

    def test_kernel_hook_install_and_removal_reach_the_next_tick(self):
        pair = entry_pair()
        assert advance(pair, ticks=2) == [10, 10]
        agents = [
            KernelModeAgent(cluster.hosts("LHR")[0], RiptideConfig(update_interval=0.5))
            for cluster in pair
        ]
        starts = iter(agents)
        advance(pair, lambda cluster: next(starts).start())
        # The hook answers from the agent's window map, which changes
        # with no route-table version to watch.
        hooked = advance(pair, ticks=8)
        assert hooked != [10, 10]
        assert pair[0].hosts("LHR")[0].route_table.version == 0
        stops = iter(agents)
        assert advance(pair, lambda cluster: next(stops).stop()) == [10, 10]


class TestLinkCoupling:
    def test_fluid_load_extends_serialization(self, cluster):
        add_population(cluster, flows=400.0)
        cluster.run(2.0)
        trunk = cluster.network.link_from(
            cluster.pop("LHR").prefix, cluster.pop("JFK").prefix
        )
        loaded = trunk.capacity_bps
        trunk.set_fluid_load(0.0)
        assert trunk.capacity_bps == trunk.bandwidth_bps > loaded

    def test_serialization_floor_protects_packet_slice(self, sim):
        from repro.net.link import Link

        link = Link(sim, bandwidth_bps=1e9, propagation_delay=0.01)
        link.set_fluid_load(1e12)  # absurd overload
        # Residual capacity floors at 5% of the link.
        assert link.capacity_bps == pytest.approx(1e9 * 0.05)
        with pytest.raises(ValueError):
            link.set_fluid_load(-1.0)

    def test_overload_raises_loss_rate(self, cluster):
        _, pop = add_population(
            cluster, flows=100_000.0, growth_segments_per_sec=50.0
        )
        cluster.run(10.0)
        # Congestion holds the cohort's windows down (1.0 here; 130 for an
        # uncongested 50-flow cohort).
        assert pop.mean_window() < 50

    def test_bursty_loss_feeds_its_stationary_rate(self, cluster):
        """A trunk losing in Gilbert-Elliott bursts: the cohorts over it
        halve at the chain's stationary loss rate, not at a sampled one."""
        trunk = cluster.network.link_from(
            cluster.pop("LHR").prefix, cluster.pop("JFK").prefix
        )
        storm = GilbertElliottLoss(0.1, 0.4, loss_good=0.0, loss_bad=0.5)
        trunk.set_loss_override(storm)
        engine, lossy = add_population(cluster, flows=50.0)
        _, clean = add_population(cluster, source="JFK", dest="LHR", flows=50.0)
        cluster.run(5.0)
        # pi_bad = 0.1 / (0.1 + 0.4), times the bad state's 0.5.
        assert storm.mean_loss_rate() == pytest.approx(0.1)
        stormy = [state for state in engine._link_states if state.link is trunk]
        assert [state.smoothed_loss for state in stormy] == [pytest.approx(0.1)]
        assert lossy.mean_window() < clean.mean_window()

    def test_link_down_collapses_cohort(self, cluster):
        _, pop = add_population(
            cluster, flows=50.0, growth_segments_per_sec=20.0
        )
        cluster.run(5.0)
        grown = pop.mean_window()
        trunk = cluster.network.link_from(
            cluster.pop("LHR").prefix, cluster.pop("JFK").prefix
        )
        trunk.set_down()
        cluster.run(2.0)
        assert pop.mean_window() < grown
        assert trunk.fluid_bps == 0.0

    def test_intra_zone_population_uncoupled(self, cluster):
        engine = cluster.fluid_traffic()
        host = cluster.hosts("LHR")[0]
        peer = cluster.hosts("LHR")[1]
        pop = engine.add_population(host, peer.address, target_flows=5.0)
        cluster.run(1.0)
        assert pop.flows == pytest.approx(5.0)
        assert not engine._link_states or all(
            p is not pop
            for state in engine._link_states
            for p in state.populations
        )


class TestObservability:
    def test_gauges_and_counters_emitted(self):
        from repro.obs.instrument import capture

        with capture():
            cluster = CdnCluster(
                topology(), ClusterConfig(seed=3)
            )
            cluster.add_fluid_traffic(
                "LHR", ["JFK"], flows_per_destination=25.0
            )
            cluster.run(3.0)
            metrics = cluster.sim.obs.metrics
            assert metrics.counter("fluid_steps").value > 0
            assert metrics.gauge("fluid_flows_open").value == pytest.approx(
                25.0, rel=1e-6
            )
            assert metrics.gauge("fluid_offered_bps").value > 0
            assert metrics.gauge("fluid_mean_cwnd").value >= 1.0

    def test_timeline_sampler_records_fluid_series(self):
        from repro.obs.instrument import capture

        with capture():
            cluster = CdnCluster(topology(), ClusterConfig(seed=3))
            cluster.add_fluid_traffic(
                "LHR", ["JFK"], flows_per_destination=25.0
            )
            cluster.start_timeline_sampler()
            cluster.run(5.0)
            names = set(cluster.sim.obs.timeline.series_names())
            assert "cluster:fluid_flows_open" in names
            assert "cluster:fluid_mean_cwnd" in names


class TestEngineValidation:
    def test_unknown_zone_pair_raises(self, cluster):
        engine = cluster.fluid_traffic()
        host = cluster.hosts("LHR")[0]
        # An address in no registered zone: intra-zone fallback only
        # applies when both ends resolve to the same zone.
        from repro.net.addresses import IPv4Address

        orphan = IPv4Address("203.0.113.9")
        with pytest.raises(ValueError):
            engine.add_population(host, orphan, target_flows=1.0)

    def test_engine_repr_mentions_population_count(self, cluster):
        engine, _ = add_population(cluster)
        assert "populations=1" in repr(engine)
