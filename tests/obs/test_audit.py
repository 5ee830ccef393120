"""Tests for the learned-table vs installed-state consistency auditor."""

from types import SimpleNamespace

from repro.core.agent import RiptideAgent
from repro.core.config import RiptideConfig
from repro.core.observed import LearnedTable
from repro.net.addresses import Prefix
from repro.obs.audit import Auditor, Divergence
from repro.obs.trace import EventType
from repro.sim.kernel import Simulator
from repro.tcp.constants import TcpConfig
from repro.testing import TwoHostTestbed, request_response


class StubAgent:
    """The minimal surface the auditor reads, with installs under test
    control."""

    def __init__(self, sim: Simulator) -> None:
        self.host = SimpleNamespace(sim=sim, name="stub")
        self._table = LearnedTable(ttl=60.0)
        self.installed: dict[Prefix, int] = {}

    def learned_table(self) -> LearnedTable:
        return self._table

    def installed_window(self, destination: Prefix) -> int | None:
        return self.installed.get(destination)


P1 = Prefix.parse("10.0.0.1/32")
P2 = Prefix.parse("10.0.0.2/32")


class TestAuditorUnit:
    def test_consistent_state_is_clean(self, sim):
        agent = StubAgent(sim)
        agent.learned_table().record(P1, 40, now=0.0)
        agent.installed[P1] = 40
        auditor = Auditor(agent)
        assert auditor.check(now=1.0) == []
        assert auditor.checks_run == 1
        assert sim.obs.metrics.counter_value("auditor_checks") == 1
        assert sim.obs.metrics.counter_value("auditor_entries_checked") == 1
        assert sim.obs.metrics.counter_value("auditor_divergences") == 0

    def test_missing_and_mismatched_installs_are_divergences(self, sim):
        agent = StubAgent(sim)
        agent.learned_table().record(P1, 40, now=0.0)  # never installed
        agent.learned_table().record(P2, 50, now=0.0)
        agent.installed[P2] = 25  # installed with the wrong window
        auditor = Auditor(agent)
        divergences = auditor.check(now=1.0)
        assert len(divergences) == 2
        by_destination = {d.destination: d for d in divergences}
        assert by_destination[P1].installed_window is None
        assert by_destination[P2].installed_window == 25
        assert auditor.divergences_found == 2
        assert auditor.last_divergences == divergences
        assert sim.obs.metrics.counter_value("auditor_divergences") == 2
        traced = [e for e in sim.obs.trace.events() if e.type is EventType.AUDIT_DIVERGENCE]
        assert len(traced) == 2
        assert traced[0].source == "auditor:stub"

    def test_divergence_description(self):
        missing = Divergence(P1, learned_window=40, installed_window=None)
        wrong = Divergence(P1, learned_window=40, installed_window=12)
        assert "missing" in missing.describe()
        assert "installed 12" in wrong.describe()


def make_testbed():
    bed = TwoHostTestbed(
        rtt=0.100,
        client_config=TcpConfig(default_initrwnd=300),
        server_config=TcpConfig(default_initrwnd=300),
    )
    bed.serve_echo()
    return bed


class TestAuditorOnAgent:
    def test_clean_run_never_diverges(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        auditor = Auditor(agent)
        agent.attach_auditor(auditor)
        agent.start()
        request_response(bed, response_bytes=500_000)
        bed.sim.run(until=bed.sim.now + 5.0)
        assert auditor.checks_run > 0
        assert auditor.divergences_found == 0
        assert bed.sim.obs.metrics.counter_value("auditor_divergences") == 0

    def test_route_deleted_under_agent_is_caught_and_healed(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        auditor = Auditor(agent)
        agent.attach_auditor(auditor)
        agent.start()
        request_response(bed, response_bytes=1_000_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        key = Prefix.host(bed.client.address)
        assert bed.server.ip.route_get(bed.client.address) is not None
        assert auditor.divergences_found == 0

        # An operator deletes the route out from under the running agent.
        bed.server.ip.route_del(key)
        bed.sim.run(until=bed.sim.now + 0.6)  # one poll tick

        assert auditor.divergences_found >= 1
        assert bed.sim.obs.metrics.counter_value("auditor_divergences") >= 1
        traced = [e for e in bed.sim.obs.trace.events() if e.type is EventType.AUDIT_DIVERGENCE]
        assert traced
        assert traced[0].detail("installed") is None

        # The same tick's install pass self-heals the divergence ...
        route = bed.server.ip.route_get(bed.client.address)
        assert route is not None
        assert route.initcwnd == agent.learned_window_for(key)

        # ... so the next audit is clean again.
        found_before = auditor.divergences_found
        bed.sim.run(until=bed.sim.now + 1.0)
        assert auditor.divergences_found == found_before
