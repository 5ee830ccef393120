"""The fault injector against a live (tiny) cluster."""

import pytest

from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.experiments.scenarios import sub_topology
from repro.faults.engine import FaultInjector
from repro.faults.spec import (
    AGENT_RESTART_AFTER,
    AgentCrash,
    FaultSchedule,
    IpToolFault,
    LinkDegrade,
    LinkFlap,
    LossStorm,
    PollJitter,
    PopPartition,
    SsFault,
)
from repro.net.addresses import IPv4Address
from repro.net.errors import NetworkError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.obs.trace import EventType
from repro.sim.rand import RandomStreams
from tests.datagram import Datagram

POPS = ("LHR", "JFK", "NRT")


def tiny_cluster(seed: int = 7) -> CdnCluster:
    return CdnCluster(sub_topology(POPS), ClusterConfig(seed=seed))


def make_injector(cluster: CdnCluster, *specs) -> FaultInjector:
    injector = FaultInjector(cluster, FaultSchedule(specs=tuple(specs)))
    injector.arm()
    return injector


def trunk(cluster: CdnCluster, a: str, b: str):
    return cluster.network.trunk_between(
        cluster.pop(a).prefix, cluster.pop(b).prefix
    )


class TestNetworkFaults:
    def test_link_flap_downs_and_restores_the_trunk(self):
        cluster = tiny_cluster()
        make_injector(
            cluster, LinkFlap(pop_a="LHR", pop_b="JFK", at=1.0, duration=2.0)
        )
        duplex = trunk(cluster, "LHR", "JFK")
        assert duplex.up
        cluster.run(1.5)
        assert not duplex.up
        cluster.run(2.0)
        assert duplex.up

    def test_partition_downs_every_trunk_of_the_pop(self):
        cluster = tiny_cluster()
        make_injector(cluster, PopPartition(pop="NRT", at=1.0, duration=2.0))
        cluster.run(1.5)
        assert not trunk(cluster, "NRT", "LHR").up
        assert not trunk(cluster, "NRT", "JFK").up
        assert trunk(cluster, "LHR", "JFK").up  # untouched
        cluster.run(2.0)
        assert trunk(cluster, "NRT", "LHR").up

    def test_degrade_scales_bandwidth_and_adds_delay(self):
        cluster = tiny_cluster()
        make_injector(
            cluster,
            LinkDegrade(
                pop_a="LHR",
                pop_b="JFK",
                at=1.0,
                duration=2.0,
                bandwidth_scale=0.5,
                extra_delay=0.010,
            ),
        )
        duplex = trunk(cluster, "LHR", "JFK")
        cluster.run(1.5)
        assert duplex.forward.bandwidth_scale == 0.5
        assert duplex.forward.extra_delay == 0.010
        cluster.run(2.0)
        assert duplex.forward.bandwidth_scale == 1.0
        assert duplex.forward.extra_delay == 0.0

    def test_loss_storm_installs_and_clears_the_override(self):
        cluster = tiny_cluster()
        make_injector(
            cluster,
            LossStorm(pop="JFK", at=1.0, duration=2.0, loss_probability=0.3),
        )
        duplex = trunk(cluster, "JFK", "LHR")
        cluster.run(1.5)
        assert duplex.forward._loss_override is not None
        cluster.run(2.0)
        assert duplex.forward._loss_override is None

    def test_unknown_pop_fails_at_arm_time(self):
        cluster = tiny_cluster()
        injector = FaultInjector(
            cluster,
            FaultSchedule(
                specs=(PopPartition(pop="XXX", at=1.0, duration=1.0),)
            ),
        )
        with pytest.raises(KeyError, match="XXX"):
            injector.arm()

    def test_missing_trunk_fails_at_arm_time(self):
        # A cluster with a single PoP has no trunks at all.
        cluster = CdnCluster(sub_topology(("LHR",)), ClusterConfig(seed=7))
        injector = FaultInjector(
            cluster,
            FaultSchedule(specs=(PopPartition(pop="LHR", at=1.0, duration=1.0),)),
        )
        with pytest.raises(NetworkError, match="no trunks"):
            injector.arm()


class Sink:
    """A bare host keeping the index each arriving packet carries."""

    def __init__(self, address: IPv4Address) -> None:
        self.address = address
        self.received: list[int] = []

    def receive_packet(self, packet: Packet) -> None:
        self.received.append(packet.tag)


class TestFaultsOnColdTrunks:
    """Faults aimed at a trunk no packet has crossed: a direction builds its
    loss generator and its queue with its first packet, and the fault entry
    points must find it whole before that."""

    SEED = 7

    @staticmethod
    def sinks(cluster: CdnCluster, *codes: str) -> list[Sink]:
        found = []
        for code in codes:
            sink = Sink(IPv4Address(cluster.pop(code).prefix.network.value + 200))
            cluster.network.attach(sink)
            found.append(sink)
        return found

    @staticmethod
    def directions(cluster: CdnCluster, a: str, b: str) -> tuple[Link, Link]:
        duplex = trunk(cluster, a, b)
        return duplex.forward, duplex.reverse

    @classmethod
    def assert_carries_traffic_cleanly(cls, cluster: CdnCluster) -> None:
        """Organic LHR -> NRT transfers get through, nothing was counted as
        dropped on a down link, and no auditor saw a divergence."""
        cluster.add_organic_workload("LHR", ["NRT"])
        cluster.run(5.0)
        for direction in cls.directions(cluster, "LHR", "NRT"):
            assert direction.stats.packets_delivered > 0
            assert direction.stats.packets_dropped_down == 0
        auditors = [agent.auditor for agent in cluster.all_agents()]
        assert all(auditor.checks_run > 0 for auditor in auditors)
        assert [auditor.divergences_found for auditor in auditors] == [0] * len(auditors)

    def test_loss_storm_draws_from_the_directions_own_stream(self):
        cluster = tiny_cluster(self.SEED)
        cluster.start_riptide()
        make_injector(
            cluster, LossStorm(pop="NRT", at=1.0, duration=2.0, loss_probability=0.3)
        )
        source, sink = self.sinks(cluster, "LHR", "NRT")
        link = cluster.network.link_from(
            cluster.pop("LHR").prefix, cluster.pop("NRT").prefix
        )
        cluster.run(1.5)
        assert link.stats.packets_offered == 0
        storm = link.effective_loss_model
        assert storm is not link._loss
        # Unconsulted so far, so its clone starts where the storm does.
        storm_replay, configured_replay = storm.clone(), link._loss.clone()

        def burst(indices: range) -> None:
            for index in indices:
                cluster.network.send(
                    Datagram(source.address, sink.address, 1000, tag=index)
                )

        burst(range(300))
        cluster.run(1.0)
        stream = RandomStreams(self.SEED).stream("loss:" + link.name)
        under_storm = [
            index for index in range(300) if not storm_replay.should_drop(stream)
        ]
        assert sink.received == under_storm
        assert 150 < len(under_storm) < 270
        cluster.run(1.0)
        assert link.effective_loss_model is link._loss
        burst(range(300, 600))
        cluster.run(0.5)
        after_storm = [
            index for index in range(300, 600)
            if not configured_replay.should_drop(stream)
        ]
        assert sink.received == under_storm + after_storm
        self.assert_carries_traffic_cleanly(cluster)

    def test_link_flap_purges_nothing_and_carries_traffic_afterwards(self):
        cluster = tiny_cluster(self.SEED)
        cluster.start_riptide()
        make_injector(
            cluster, LinkFlap(pop_a="LHR", pop_b="NRT", at=1.0, duration=2.0)
        )
        cluster.run(1.5)
        assert not trunk(cluster, "LHR", "NRT").up
        for direction in self.directions(cluster, "LHR", "NRT"):
            assert direction.queue_depth == 0
            assert direction.stats.packets_offered == 0
            assert direction.stats.packets_dropped_down == 0
        cluster.run(2.0)
        assert trunk(cluster, "LHR", "NRT").up
        self.assert_carries_traffic_cleanly(cluster)


class TestToolFaults:
    def test_ss_fault_window(self):
        cluster = tiny_cluster()
        make_injector(
            cluster, SsFault(pop="LHR", at=1.0, duration=2.0, mode="stale")
        )
        host = cluster.hosts("LHR")[0]
        cluster.run(1.5)
        assert host.ss._fault_mode == "stale"
        cluster.run(2.0)
        assert host.ss._fault_mode is None

    def test_stale_fault_keeps_a_replay_on_its_pop_alone(self):
        cluster = tiny_cluster()
        make_injector(
            cluster,
            SsFault(pop="LHR", at=1.0, duration=2.0, mode="stale"),
            SsFault(pop="JFK", at=1.0, duration=2.0, mode="partial"),
        )
        keeping = [
            host for code in POPS for host in cluster.hosts(code)
            if host.ss._last_good is not None
        ]
        assert keeping == [agent.host for agent in cluster.agents("LHR")]
        assert keeping

    def test_stale_poll_with_no_good_poll_since_arm_serves_nothing(self):
        cluster = tiny_cluster()
        cluster.add_fluid_traffic("LHR", ["JFK"], flows_per_destination=10.0)
        host = cluster.hosts("LHR")[0]
        cluster.run(1.0)
        assert host.ss.tcp_info()  # rows a replay kept before arming would hold
        make_injector(
            cluster, SsFault(pop="LHR", at=0.0, duration=2.0, mode="stale")
        )
        cluster.run(0.5)
        assert host.ss._fault_mode == "stale"
        assert host.ss.tcp_info() == []
        cluster.run(2.0)
        good = host.ss.tcp_info()
        assert good
        host.ss.set_fault("stale")
        assert host.ss.tcp_info() == good

    def test_ip_fault_window(self):
        cluster = tiny_cluster()
        make_injector(cluster, IpToolFault(pop="JFK", at=1.0, duration=2.0))
        host = cluster.hosts("JFK")[0]
        cluster.run(1.5)
        assert host.ip._failing
        cluster.run(2.0)
        assert not host.ip._failing


class TestProcessFaults:
    def test_crash_and_restart(self):
        cluster = tiny_cluster()
        cluster.start_riptide()
        make_injector(cluster, AgentCrash(pop="LHR", at=2.0))
        agents = cluster.agents("LHR")
        cluster.run(3.0)
        assert all(not agent.running for agent in agents)
        assert all(agent.stats.crashes == 1 for agent in agents)
        cluster.run(AGENT_RESTART_AFTER)
        assert all(agent.running for agent in agents)
        totals = cluster.sim.obs.trace.totals()
        assert totals[EventType.AGENT_CRASHED] == len(agents)
        assert totals[EventType.AGENT_RESTARTED] == len(agents)

    def test_crash_is_noop_on_control_arm(self):
        cluster = tiny_cluster()  # Riptide never started
        make_injector(cluster, AgentCrash(pop="LHR", at=2.0))
        cluster.run(10.0)
        # Crash must not *start* agents on an arm where none were running.
        assert all(not agent.running for agent in cluster.agents("LHR"))
        assert all(
            agent.stats.crashes == 0 for agent in cluster.agents("LHR")
        )

    def test_poll_jitter_is_deterministic(self):
        def polls_after(seed: int) -> list[int]:
            cluster = tiny_cluster(seed=seed)
            cluster.start_riptide()
            make_injector(
                cluster,
                PollJitter(pop="LHR", at=1.0, duration=20.0, amplitude=0.8),
            )
            cluster.run(25.0)
            return [agent.stats.polls for agent in cluster.agents("LHR")]

        assert polls_after(7) == polls_after(7)
        # Jitter actually slows the loop relative to the exact cadence.
        cluster = tiny_cluster()
        cluster.start_riptide()
        cluster.run(25.0)
        unjittered = [agent.stats.polls for agent in cluster.agents("LHR")]
        assert polls_after(7) != unjittered


class TestInjectorBookkeeping:
    def test_trace_and_counters(self):
        cluster = tiny_cluster()
        injector = make_injector(
            cluster,
            LinkFlap(pop_a="LHR", pop_b="JFK", at=1.0, duration=2.0),
            SsFault(pop="LHR", at=2.0, duration=2.0),
        )
        cluster.run(1.5)
        assert injector.injected == 1
        assert [spec.kind for spec in list(injector._active.values())] == ["link_flap"]
        cluster.run(4.0)
        assert injector.injected == 2
        assert injector.cleared == 2
        assert list(injector._active.values()) == []
        totals = cluster.sim.obs.trace.totals()
        assert totals[EventType.FAULT_INJECTED] == 2
        assert totals[EventType.FAULT_CLEARED] == 2
        metrics = cluster.sim.obs.metrics
        assert metrics.counter("fault_injections", kind="link_flap").value == 1
        assert metrics.counter("fault_injections", kind="ss_fault").value == 1
        assert metrics.gauge("faults_active").value == 0

    def test_a_spec_listed_twice_closes_both_fault_spans(self):
        cluster = tiny_cluster()
        storm = LossStorm(pop="JFK", at=1.0, duration=2.0, loss_probability=0.3)
        injector = make_injector(cluster, storm, storm)
        cluster.run(4.0)
        assert injector.injected == injector.cleared == 2
        assert list(injector._active.values()) == []
        spans = cluster.sim.obs.spans.spans(category="fault")
        assert [(span.begin, span.end) for span in spans] == [(1.0, 3.0), (1.0, 3.0)]

    def test_arming_twice_rejected(self):
        cluster = tiny_cluster()
        injector = make_injector(
            cluster, SsFault(pop="LHR", at=1.0, duration=1.0)
        )
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()
