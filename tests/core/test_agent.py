"""Integration tests for the Riptide agent (Algorithm 1) on live hosts."""

import pytest

from repro.core.agent import RiptideAgent
from repro.core.combiners import Observation
from repro.core.config import RiptideConfig
from repro.core.guard import PathHealth
from repro.net.addresses import IPv4Address, Prefix
from repro.obs.trace import EventType
from repro.tcp.constants import TcpConfig
from repro.tcp.socket import SocketStats, TcpState
from repro.testing import TwoHostTestbed, request_response

RTT = 0.100


def make_testbed():
    bed = TwoHostTestbed(
        rtt=RTT,
        client_config=TcpConfig(default_initrwnd=300),
        server_config=TcpConfig(default_initrwnd=300),
    )
    bed.serve_echo()
    return bed


class TestLearningLoop:
    def test_agent_learns_from_open_connection(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        # A large transfer grows the server-side window well past 10.
        request_response(bed, response_bytes=500_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        key = Prefix.host(bed.client.address)
        learned = agent.learned_window_for(key)
        assert learned is not None
        assert learned > 10

    def test_learned_route_installed_in_fib(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=500_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        route = bed.server.ip.route_get(bed.client.address)
        assert route is not None
        assert route.initcwnd == agent.learned_window_for(
            Prefix.host(bed.client.address)
        )

    def test_next_connection_starts_at_learned_window(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        cold = request_response(bed, response_bytes=300_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        bed.client.sockets()[0].close() if bed.client.sockets() else None
        bed.sim.run(until=bed.sim.now + 1.0)
        warm = request_response(bed, response_bytes=300_000)
        assert warm.total_time < cold.total_time

    def test_clamping_applies(self):
        bed = make_testbed()
        agent = RiptideAgent(
            bed.server, RiptideConfig(update_interval=0.5, c_max=25, c_min=10)
        )
        agent.start()
        request_response(bed, response_bytes=1_000_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        learned = agent.learned_window_for(Prefix.host(bed.client.address))
        assert learned == 25  # clamped despite a much larger live window

    def test_c_min_floor(self):
        bed = make_testbed()
        agent = RiptideAgent(
            bed.server, RiptideConfig(update_interval=0.5, c_min=15, c_max=100)
        )
        agent.start()
        request_response(bed, response_bytes=5_000)  # tiny transfer, cwnd ~10
        bed.sim.run(until=bed.sim.now + 2.0)
        learned = agent.learned_window_for(Prefix.host(bed.client.address))
        assert learned is not None
        assert learned >= 15


class TestTtlExpiry:
    def test_route_expires_after_ttl(self):
        bed = make_testbed()
        agent = RiptideAgent(
            bed.server, RiptideConfig(update_interval=0.5, ttl=3.0)
        )
        agent.start()
        request_response(bed, response_bytes=300_000)
        bed.sim.run(until=bed.sim.now + 1.0)
        assert bed.server.ip.route_get(bed.client.address) is not None
        # Close everything; with no connections the entry must expire.
        for sock in list(bed.client.sockets()) + list(bed.server.sockets()):
            sock.abort()
        bed.sim.run(until=bed.sim.now + 5.0)
        assert bed.server.ip.route_get(bed.client.address) is None
        assert agent.stats.routes_expired >= 1

    def test_expiry_restores_default_initcwnd(self):
        bed = make_testbed()
        agent = RiptideAgent(
            bed.server, RiptideConfig(update_interval=0.5, ttl=3.0)
        )
        agent.start()
        request_response(bed, response_bytes=300_000)
        bed.sim.run(until=bed.sim.now + 1.0)
        for sock in list(bed.client.sockets()) + list(bed.server.sockets()):
            sock.abort()
        bed.sim.run(until=bed.sim.now + 5.0)
        assert bed.server.initcwnd_for(bed.client.address) == 10

    def test_activity_keeps_entry_alive(self):
        bed = make_testbed()
        agent = RiptideAgent(
            bed.server, RiptideConfig(update_interval=0.5, ttl=3.0)
        )
        agent.start()
        request_response(bed, response_bytes=300_000)
        # Connection stays open and established: entry must survive > ttl.
        bed.sim.run(until=bed.sim.now + 10.0)
        assert bed.server.ip.route_get(bed.client.address) is not None


class TestAgentLifecycle:
    def test_stop_removes_routes(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=300_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        assert len(bed.server.route_table) == 1
        agent.stop()
        assert len(bed.server.route_table) == 0
        assert not agent.running

    def test_stop_clears_learned_state(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=300_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        assert len(agent.learned_table()) == 1
        agent.stop()
        assert len(agent.learned_table()) == 0
        assert agent.stats.routes_withdrawn == 1

    def test_restart_reinstalls_routes(self):
        """Regression: ``stop()`` used to strand learned entries.

        The routes were withdrawn but the learned table kept the old
        windows, so a restarted agent recomputing the *same* window saw
        "no change" and never reinstalled the route — connections
        silently ran at the kernel default.
        """
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        # A large transfer pushes the live window far past c_max, so the
        # learned window sits pinned at exactly c_max across ticks — the
        # stable-window case that masked the missing reinstall.
        request_response(bed, response_bytes=1_000_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        key = Prefix.host(bed.client.address)
        window = agent.learned_window_for(key)
        assert window == agent.config.c_max

        agent.stop()
        assert bed.server.ip.route_get(bed.client.address) is None

        agent.start()
        bed.sim.run(until=bed.sim.now + 1.0)
        route = bed.server.ip.route_get(bed.client.address)
        assert route is not None
        assert route.initcwnd == window

    def test_stop_can_keep_routes(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=300_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        agent.stop(remove_routes=False)
        assert len(bed.server.route_table) == 1

    def test_stats_track_operation(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=300_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        assert agent.stats.polls > 0
        assert agent.stats.connections_observed > 0
        assert agent.stats.routes_installed >= 1

    def test_window_history_recording(self):
        """Every install is on the trace with its window, in time order."""
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=300_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        installs = [
            event
            for event in bed.sim.obs.trace.events()
            if event.type is EventType.ROUTE_INSTALLED and event.source == bed.server.name
        ]
        assert len(installs) == agent.stats.routes_installed >= 1
        times = [event.time for event in installs]
        assert times == sorted(times)
        route = bed.server.ip.route_get(bed.client.address)
        assert route.initcwnd == installs[-1].detail("window")


class TestGranularityIntegration:
    def test_prefix_route_covers_whole_zone(self):
        bed = make_testbed()
        agent = RiptideAgent(
            bed.server,
            RiptideConfig(update_interval=0.5, granularity="prefix"),
        )
        agent.start()
        request_response(bed, response_bytes=300_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        # The learned route is 10.0.0.0/16, so any host in the client
        # zone resolves to the learned window.
        from repro.net.addresses import IPv4Address

        other_host = IPv4Address("10.0.0.99")
        assert bed.server.initcwnd_for(other_host) > 10

    def test_ewma_converges_upward_over_ticks(self):
        bed = make_testbed()
        agent = RiptideAgent(
            bed.server, RiptideConfig(update_interval=0.25, alpha=0.7)
        )
        agent.start()
        request_response(bed, response_bytes=1_000_000)
        bed.sim.run(until=bed.sim.now + 5.0)
        windows = [
            event.detail("window")
            for event in bed.sim.obs.trace.events()
            if event.type is EventType.ROUTE_INSTALLED
        ]
        # The EWMA walks up toward the observed large window.
        assert windows[-1] >= windows[0]
        assert windows[-1] > 10


# ----------------------------------------------------------------------
# _observe_and_group, differentially against per-row grouping
# ----------------------------------------------------------------------


def ss_row(remote, cwnd, port, sent=100, retransmitted=3, srtt=0.05, acked=5000):
    return SocketStats(
        port, remote, 8080, TcpState.ESTABLISHED, cwnd, 320.0, 10, srtt,
        acked, 0, sent, retransmitted, 0.0, 0.0, 1.0, True,
    )


def group_per_row(agent, rows):
    """The reference: one ``key_for`` and one ``setdefault`` per row."""
    grouped, health = {}, {}
    for info in rows:
        key = agent._grouper.key_for(info.remote_address)
        grouped.setdefault(key, []).append(
            Observation(cwnd=info.cwnd, bytes_acked=info.bytes_acked, srtt=info.srtt)
        )
        health.setdefault(key, PathHealth()).add(
            info.segments_sent, info.segments_retransmitted, info.srtt
        )
    return grouped, health


def fields(record):
    return tuple(getattr(record, name) for name in type(record).__slots__)


def grouped_fields(grouped):
    return {key: [fields(o) for o in group] for key, group in grouped.items()}


@pytest.mark.parametrize("safety_guard", [True, False])
@pytest.mark.parametrize(
    "granularity", [{"granularity": "host"}, {"granularity": "prefix"}]
)
def test_observe_and_group_matches_per_row_grouping(granularity, safety_guard):
    bed = make_testbed()
    agent = RiptideAgent(
        bed.server, RiptideConfig(safety_guard=safety_guard, **granularity)
    )
    a = IPv4Address("10.7.0.1")
    a_again = IPv4Address("10.7.0.1")  # equal to ``a``, another object
    b = IPv4Address("10.8.0.1")
    a_neighbour = IPv4Address("10.7.9.9")  # inside a's /16
    c = IPv4Address("10.9.0.1")
    # Runs of one remote (a cohort's rows, a peer's sockets), then the
    # remotes interleaved A, B, A, an equal address that is a different
    # object, a second address of A's /16, a single-row run, a row
    # without an RTT sample.
    remotes = [a, a, a, b, b, a, a_again, a_neighbour, a_neighbour, c, b, a]
    rows = [
        ss_row(
            remote, cwnd=10 + 3 * i, port=50000 + i, sent=100 + 7 * i,
            retransmitted=i % 4, srtt=None if i == 9 else 0.01 * (i + 1),
            acked=1000 * i,
        )
        for i, remote in enumerate(remotes)
    ]
    bed.server.ss.tcp_info = lambda **filters: rows
    grouped, health = agent._observe_and_group()
    expected_grouped, expected_health = group_per_row(agent, rows)
    if not safety_guard:
        expected_health = {}
    assert list(grouped) == list(expected_grouped)  # same keys, same order
    assert grouped_fields(grouped) == grouped_fields(expected_grouped)
    assert list(health) == list(expected_health)
    assert [fields(h) for h in health.values()] == [fields(h) for h in expected_health.values()]
    distinct = 3 if granularity["granularity"] == "prefix" else 4
    assert len(grouped) == distinct
    assert sum(len(group) for group in grouped.values()) == len(rows)
    assert agent.stats.connections_observed == len(rows)
    # and again, warm
    assert grouped_fields(agent._observe_and_group()[0]) == grouped_fields(expected_grouped)
