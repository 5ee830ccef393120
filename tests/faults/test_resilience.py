"""Agent-side resilience policies under injected tool and path faults."""

from repro.core import RiptideAgent, RiptideConfig
from repro.core.agent import TOOL_RETRY_LIMIT
from repro.core.guard import HOLD_SECONDS
from repro.net import Prefix
from repro.net.loss import BernoulliLoss
from repro.obs.trace import EventType
from repro.tcp import TcpConfig
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


class TestToolRetry:
    def test_install_retries_after_ip_fault_clears(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=5.0))
        request_response(bed, response_bytes=500_000)  # grow the window
        bed.server.ip.set_fault()
        agent.start()  # first tick in 5s fails its install
        start = bed.sim.now
        bed.sim.run(until=start + 5.2)
        assert agent.stats.tool_errors >= 1
        key = Prefix.host(bed.client.address)
        assert bed.server.ip.route_get(bed.client.address) is None
        bed.server.ip.clear_fault()
        # Retry ladder fires at +0.5s; well before the next tick at 10s.
        bed.sim.run(until=start + 7.0)
        assert agent.stats.tool_retries >= 1
        route = bed.server.ip.route_get(bed.client.address)
        assert route is not None
        assert route.initcwnd == agent.learned_window_for(key)

    def test_retries_give_up_after_the_limit(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=5.0))
        request_response(bed, response_bytes=500_000)
        bed.server.ip.set_fault()
        agent.start()
        start = bed.sim.now
        # Tick at +5s, retries at +5.5s, +6.5s and +8.5s, then the ladder
        # ends; stop before the next tick at +10s re-runs the install path.
        bed.sim.run(until=start + 9.5)
        assert agent.stats.tool_retries == TOOL_RETRY_LIMIT == 3
        assert bed.server.ip.route_get(bed.client.address) is None
        # The next healthy tick self-heals without any retry state.
        bed.server.ip.clear_fault()
        bed.sim.run(until=start + 11.0)
        assert bed.server.ip.route_get(bed.client.address) is not None


class TestPollFailures:
    def test_agent_survives_ss_blackout(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=500_000)
        bed.server.ss.set_fault("error")
        bed.sim.run(until=bed.sim.now + 3.0)
        assert agent.running
        assert agent.stats.poll_failures >= 1
        # Learning resumes once the tool recovers.
        bed.server.ss.clear_fault()
        bed.sim.run(until=bed.sim.now + 2.0)
        assert agent.learned_window_for(Prefix.host(bed.client.address)) is not None

    def test_partial_snapshot_learns_from_what_remains(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        bed.server.ss.set_fault("partial")
        request_response(bed, response_bytes=500_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        # One connection, kept by the [::2] stride: learning continues.
        assert agent.learned_window_for(Prefix.host(bed.client.address)) is not None
        assert agent.running


class TestCrashRecovery:
    def test_routes_survive_crash_and_restart_self_heals(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        request_response(bed, response_bytes=500_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        key = Prefix.host(bed.client.address)
        learned_before = agent.learned_window_for(key)
        assert learned_before is not None
        agent.crash()
        # Process memory is gone; the kernel FIB keeps the route.
        assert agent.learned_window_for(key) is None
        route = bed.server.ip.route_get(bed.client.address)
        assert route is not None and route.initcwnd == learned_before
        agent.start()
        request_response(bed, response_bytes=500_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        assert agent.learned_window_for(key) is not None
        assert agent.stats.crashes == 1


class TestSafetyGuard:
    GUARD_CONFIG = RiptideConfig(update_interval=0.5, safety_guard=True)

    def _learn_big_window(self, bed, agent):
        request_response(bed, response_bytes=500_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        key = Prefix.host(bed.client.address)
        learned = agent.learned_window_for(key)
        assert learned is not None and learned > 10
        return key, learned

    def test_loss_storm_trips_guard_and_reverts_to_iw10(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, self.GUARD_CONFIG)
        agent.start()
        key, _ = self._learn_big_window(bed, agent)
        # The path turns hostile: heavy random loss on the trunk.
        bed.trunk.set_loss_override(BernoulliLoss(0.25))
        for _ in range(4):
            request_response(bed, response_bytes=120_000, deadline=5.0)
        assert agent.stats.guard_trips >= 1
        # The learned route is withdrawn: new connections fall back to
        # the kernel default initial window of 10.
        assert agent.learned_window_for(key) is None
        assert bed.server.ip.route_get(bed.client.address) is None
        assert bed.server.initcwnd_for(bed.client.address) == 10

    def test_guard_holds_destination_at_default(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, self.GUARD_CONFIG)
        agent.start()
        key, _ = self._learn_big_window(bed, agent)
        bed.trunk.set_loss_override(BernoulliLoss(0.25))
        storm = [
            request_response(bed, response_bytes=120_000, deadline=5.0)
            for _ in range(4)
        ]
        assert agent.safety_guard.holding(key, bed.sim.now)
        # Healthy path again, but the hold pins the destination: no
        # relearning while it lasts, even with traffic flowing.  The
        # abandoned storm exchanges are torn down the way a probe client
        # would on timeout — their stalled sockets must not linger.
        bed.trunk.set_loss_override(None)
        for exchange in storm:
            exchange.socket.abort()
        request_response(bed, response_bytes=300_000, deadline=3.0)
        assert agent.learned_window_for(key) is None
        # After the hold lapses the destination can be learned again.
        bed.sim.run(until=bed.sim.now + HOLD_SECONDS + 5.0)
        request_response(bed, response_bytes=500_000)
        bed.sim.run(until=bed.sim.now + 2.0)
        assert agent.learned_window_for(key) is not None
        totals = bed.sim.obs.trace.totals()
        assert totals[EventType.GUARD_TRIPPED] >= 1
        assert totals[EventType.GUARD_RELEASED] >= 1

    def test_guard_ignores_healthy_traffic(self):
        bed = make_testbed()
        agent = RiptideAgent(bed.server, self.GUARD_CONFIG)
        agent.start()
        self._learn_big_window(bed, agent)
        for _ in range(4):
            request_response(bed, response_bytes=120_000)
        assert agent.stats.guard_trips == 0
