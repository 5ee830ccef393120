"""Algorithm 1 as an executable spec, held against every tick the agent runs.

:func:`spec_tick` is the paper's update rule (PAPER.md §1, Table I) as
one pure function: group this poll's ``ss`` rows by destination, combine
each group's windows, fold the result into the destination's EWMA, clamp
to ``[c_min, c_max]``, scale by the active advisory, install what differs
from the route table, and withdraw every entry unrefreshed for ``ttl``.
It covers the ``ewma`` policy only, with all three combiners and both
granularities.  Everything the rule does not decide is an input: the
safety guard's verdicts, the ``ip`` commands that failed, and the routes
installed when the tick starts.

:class:`Recorder` gathers those inputs from a live run.  It patches
``RiptideAgent._tick``, ``SsTool.tcp_info``, the ``IpRouteTool`` verbs,
``SafetyGuard.observe``/``holding`` and ``AdvisoryController.scale_at``
at class level, before any cluster is built, and checks each tick as it
ends: the spec's learned windows and expiries against the agent's
learned table, its commands against the ``ip`` commands the agent
issued, and the route table it predicts against the host's.  The spec
carries its own state from tick to tick; only a crash (which wipes the
agent's memory) resets it.

Run as a script to print the ticks checked per study.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import replace

import pytest

from repro.core.advisory import AdvisoryController
from repro.core.agent import RiptideAgent
from repro.core.config import RiptideConfig
from repro.core.guard import SafetyGuard
from repro.experiments import chaos, fig10_cmax_sweep, fig11_traffic_profiles, hybrid
from repro.experiments.registry import get_experiment
from repro.experiments.scenarios import probe_study_arms, run_study_arm, sub_topology
from repro.linux.errors import ToolError
from repro.linux.ip_tool import IpRouteTool
from repro.linux.ss_tool import SsTool
from repro.net.addresses import IPv4Address
from repro.tcp.socket import SocketStats, TcpState
from repro.testing import TwoHostTestbed

# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------

#: One destination's state: the EWMA value, the installed window (the
#: EWMA clamped and advisory-scaled) and the time its TTL lapses.
Learned = namedtuple("Learned", "ewma window expires_at")

#: Guard verdicts for one destination this tick: it tripped now (its
#: route is withdrawn, its history forgotten), or it is held at the
#: kernel default from an earlier trip (nothing is learned).
TRIP, HOLD = "trip", "hold"

#: Route length per granularity: a /32 per remote host, a /16 per PoP.
ROUTE_LENGTH = {"host": 32, "prefix": 16}

#: Weight of a connection that has acked no bytes (traffic_weighted).
IDLE_WEIGHT = 1.0


def destination_key(remote: int, granularity: str) -> tuple[int, int]:
    """``(network, length)`` of the route a connection to ``remote`` uses."""
    length = ROUTE_LENGTH[granularity]
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    return remote & mask, length


def combine(combiner: str, samples: list[tuple[int, int]]) -> float:
    """One poll's ``(cwnd, bytes_acked)`` samples to one destination, reduced."""
    if combiner == "average":
        return sum(cwnd for cwnd, _ in samples) / len(samples)
    if combiner == "max":
        return float(max(cwnd for cwnd, _ in samples))
    assert combiner == "traffic_weighted", combiner
    total = weighted = 0.0
    for cwnd, acked in samples:
        weight = max(float(acked), IDLE_WEIGHT)
        total += weight
        weighted += weight * cwnd
    return weighted / total


def spec_tick(state, rows, installed, now, config, advisory_scale, verdicts):
    """One poll of Algorithm 1.

    ``state`` maps destination keys to :class:`Learned`; ``rows`` are
    ``(remote, cwnd, bytes_acked)`` in ``ss`` order (empty when the poll
    failed); ``installed`` maps keys to the route table's ``initcwnd``
    at tick start; ``verdicts`` maps keys to ``TRIP``/``HOLD``.  Returns
    ``(state', installs, withdrawals)``: ``installs`` are
    ``(key, window)`` in the order the commands are issued.
    """
    state = dict(state)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for remote, cwnd, acked in rows:
        groups.setdefault(destination_key(remote, config.granularity), []).append(
            (cwnd, acked)
        )
    installs, withdrawals = [], []
    for key, samples in groups.items():
        verdict = verdicts.get(key)
        if verdict == TRIP:
            if state.pop(key, None) is not None or installed.get(key) is not None:
                withdrawals.append(key)
            continue
        if verdict == HOLD:
            continue
        previous = state.get(key)
        value = combine(config.combiner, samples)
        if previous is not None:
            value = config.alpha * previous.ewma + (1.0 - config.alpha) * value
        window = int(round(min(max(value, float(config.c_min)), float(config.c_max))))
        if advisory_scale < 1.0:
            window = max(config.c_min, round(window * advisory_scale))
        state[key] = Learned(value, window, now + config.ttl)
        if previous is None or previous.window != window or installed.get(key) != window:
            installs.append((key, window))
    for key, learned in list(state.items()):
        if now >= learned.expires_at:
            del state[key]
            withdrawals.append(key)
    return state, installs, withdrawals


def route_table_after(installed, installs, withdrawals, failed):
    """The route table once the tick's commands ran; ``failed`` holds the
    ``(verb, key)`` of each command the ``ip`` tool rejected."""
    table = dict(installed)
    for key, window in installs:
        if ("replace", key) not in failed:
            table[key] = window
    for key in withdrawals:
        if ("del", key) not in failed:
            table.pop(key, None)
    return table


# ----------------------------------------------------------------------
# the recorder
# ----------------------------------------------------------------------


def _key(prefix) -> tuple[int, int]:
    return prefix.network.value, prefix.length


def _routes(host) -> dict[tuple[int, int], int | None]:
    return {_key(entry.prefix): entry.initcwnd for entry in host.route_table.entries()}


class _Tick:
    """The inputs and commands of the tick in progress."""

    __slots__ = ("agent", "rows", "scale", "verdicts", "commands", "failed")

    def __init__(self, agent: RiptideAgent) -> None:
        self.agent = agent
        self.rows: list[tuple[int, int, int]] = []
        self.scale = 1.0
        self.verdicts: dict[tuple[int, int], str] = {}
        self.commands: list[tuple[str, tuple[int, int], int | None]] = []
        self.failed: set[tuple[str, tuple[int, int]]] = set()


class Recorder:
    """Checks every agent tick of a run against :func:`spec_tick`."""

    #: Mismatches kept in full; the count covers all of them.
    KEEP = 5

    def __init__(self) -> None:
        self.ticks = 0
        self.installs = 0
        self.withdrawals = 0
        self.mismatches = 0
        self.first: list[str] = []
        self._tick: _Tick | None = None
        self._state: dict[RiptideAgent, dict] = {}
        self._crashes: dict[RiptideAgent, int] = {}

    def install(self, monkeypatch: pytest.MonkeyPatch) -> "Recorder":
        recorder = self
        tick, tcp_info = RiptideAgent._tick, SsTool.tcp_info
        observe, holding = SafetyGuard.observe, SafetyGuard.holding
        scale_at = AdvisoryController.scale_at

        def recorded_tick(agent):
            recorder._run(agent, tick)

        def recorded_tcp_info(tool, created_after=None):
            rows = tcp_info(tool, created_after)
            current = recorder._tick
            if current is not None and tool is current.agent.host.ss:
                current.rows = [(r.remote_address.value, r.cwnd, r.bytes_acked) for r in rows]
            return rows

        def recorded_observe(guard, destination, health, now):
            reason = observe(guard, destination, health, now)
            current = recorder._tick
            if reason is not None and current is not None:
                current.verdicts[_key(destination)] = TRIP
            return reason

        def recorded_holding(guard, destination, now):
            held = holding(guard, destination, now)
            current = recorder._tick
            if held and current is not None:
                current.verdicts[_key(destination)] = HOLD
            return held

        def recorded_scale_at(controller, now):
            scale = scale_at(controller, now)
            if recorder._tick is not None:
                recorder._tick.scale = scale
            return scale

        monkeypatch.setattr(RiptideAgent, "_tick", recorded_tick)
        monkeypatch.setattr(SsTool, "tcp_info", recorded_tcp_info)
        monkeypatch.setattr(SafetyGuard, "observe", recorded_observe)
        monkeypatch.setattr(SafetyGuard, "holding", recorded_holding)
        monkeypatch.setattr(AdvisoryController, "scale_at", recorded_scale_at)
        for verb in ("add", "replace", "del"):
            name = f"route_{verb}"
            monkeypatch.setattr(
                IpRouteTool, name, self._recorded_verb(verb, getattr(IpRouteTool, name))
            )
        return self

    def _recorded_verb(self, verb, command):
        recorder = self

        def recorded(tool, destination, *args, **kwargs):
            current = recorder._tick
            if current is None or tool is not current.agent.host.ip:
                return command(tool, destination, *args, **kwargs)
            key = _key(destination)
            current.commands.append((verb, key, kwargs.get("initcwnd")))
            try:
                return command(tool, destination, *args, **kwargs)
            except ToolError:
                current.failed.add((verb, key))
                raise

        return recorded

    def _run(self, agent: RiptideAgent, tick) -> None:
        config = agent.config
        assert config.policy == "ewma", "the spec covers the ewma policy only"
        crashes = agent.stats.crashes
        if self._crashes.get(agent) != crashes:
            # A crash wiped the process's memory; the routes survive it.
            self._crashes[agent] = crashes
            self._state[agent] = {}
        now = agent.host.sim.now
        installed = _routes(agent.host)
        self._tick = current = _Tick(agent)
        try:
            tick(agent)
        finally:
            self._tick = None
        state, installs, withdrawals = spec_tick(
            self._state[agent], current.rows, installed, now, config,
            current.scale, current.verdicts,
        )
        self._state[agent] = state
        self.ticks += 1
        self.installs += len(installs)
        self.withdrawals += len(withdrawals)
        learned = {
            _key(entry.destination): (entry.window, entry.expires_at)
            for entry in agent.learned_table().entries()
        }
        checks = (
            ("learned", learned, {k: (v.window, v.expires_at) for k, v in state.items()}),
            ("installs", [(k, w) for verb, k, w in current.commands if verb != "del"],
             installs),
            ("withdrawals", [k for verb, k, _ in current.commands if verb == "del"],
             withdrawals),
            ("routes", _routes(agent.host),
             route_table_after(installed, installs, withdrawals, current.failed)),
        )
        for what, actual, expected in checks:
            if actual != expected:
                self.mismatches += 1
                if len(self.first) < self.KEEP:
                    self.first.append(
                        f"{agent.host.name} t={now:g}: {what} {actual} != spec {expected}"
                    )

    def report(self) -> str:
        return "\n".join([f"{self.mismatches} mismatches in {self.ticks} ticks", *self.first])


@pytest.fixture
def recorder(monkeypatch):
    return Recorder().install(monkeypatch)


# ----------------------------------------------------------------------
# every tick of every agent in the shipped studies
# ----------------------------------------------------------------------


def _fast(experiment_id: str):
    return get_experiment(experiment_id).fast


def _fig10() -> None:
    fast = _fast("fig10")
    assert 100 in fast["c_max_values"]
    fig10_cmax_sweep.run_single(
        100, sub_topology(fast["topology_codes"]), fast["duration"], fast["warmup"]
    )


def _chaos(name: str):
    # Only the Riptide arm: the control arm starts no agent.
    return lambda: run_study_arm(
        chaos.chaos_study_arms(replace(_fast(name)["config"], scenario=name))[1]
    )


#: Each study at its registry ``--fast`` shape.
STUDIES = {
    "fig12_14": lambda: run_study_arm(probe_study_arms(_fast("fig12_14")["config"])[1]),
    "fig10": _fig10,
    "fig11": lambda: fig11_traffic_profiles.run(**_fast("fig11")),
    "chaos_lossy_agent": _chaos("chaos_lossy_agent"),
    "chaos_partition": _chaos("chaos_partition"),
    "chaos_flaky_tools": _chaos("chaos_flaky_tools"),
    "hybrid": lambda: hybrid.run_scale(**_fast("hybrid")),
}


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_every_tick_of_the_study_matches_the_spec(recorder, study):
    STUDIES[study]()
    assert recorder.ticks > 0
    assert recorder.installs > 0
    assert recorder.mismatches == 0, recorder.report()


# ----------------------------------------------------------------------
# adversarial rows: a real agent on scripted ss output
# ----------------------------------------------------------------------

#: Scripted ticks per case (one poll per simulated second).
TICKS = 12


class ScriptedRows:
    """A socket source that serves one scripted poll per ``ss`` call."""

    def __init__(self, script) -> None:
        self._script = script
        self.polls = 0

    def socket_stats(self) -> list[SocketStats]:
        rows = self._script(self.polls)
        self.polls += 1
        return [
            SocketStats(
                443, IPv4Address(remote), 50_000 + i, TcpState.ESTABLISHED, cwnd, 64.0,
                10, 0.1, acked, 0, 0, 0, 0.0, 0.0, 0.0,
            )
            for i, (remote, cwnd, acked) in enumerate(rows)
        ]


def _steady(*rows):
    return lambda poll: list(rows)


#: id -> (config overrides, script, advisory (scale, duration) or None,
#: what the case must exercise: a predicate over the recorder).
CASES = {
    "empty_poll": ({}, _steady(), None, lambda r: r.installs == 0),
    "one_socket": ({}, _steady(("10.0.0.1", 37, 9_000)), None, lambda r: r.installs == 1),
    "leaves_past_ttl_and_returns": (
        {"ttl": 3.0},
        lambda poll: [("10.0.0.1", 20 + 5 * poll, 1_000)] if poll < 3 or poll >= 8 else [],
        None,
        lambda r: r.withdrawals == 1 and r.installs >= 2,
    ),
    "above_c_max_and_below_c_min": (
        {},
        _steady(("10.0.0.1", 500, 1_000), ("10.9.0.1", 3, 1_000)),
        None,
        lambda r: r.installs == 2,
    ),
    "max_tie_zero_acked": (
        {"combiner": "max"},
        _steady(("10.0.0.1", 40, 0), ("10.0.0.2", 40, 0), ("10.0.0.3", 25, 0)),
        None,
        lambda r: r.installs == 1,
    ),
    "traffic_weighted_tie_zero_acked": (
        {"combiner": "traffic_weighted"},
        # Equal idle weights: the mean, 40.5, rounds half to even.
        _steady(("10.0.0.1", 30, 0), ("10.0.0.2", 51, 0)),
        None,
        lambda r: r.installs == 1,
    ),
    "advisory_ends_mid_run": (
        {},
        _steady(("10.0.0.1", 80, 1_000)),
        (0.5, 4.5),
        lambda r: r.installs == 2,
    ),
    "host_granularity": (
        {"granularity": "host", "combiner": "traffic_weighted"},
        lambda poll: [
            ("10.0.0.1", 30 + poll, 2_000),
            ("10.0.7.9", 90, 0),
            ("10.0.0.1", 60, 500 * poll),
        ],
        None,
        lambda r: r.installs >= 3,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_adversarial_rows_match_the_spec(recorder, case):
    overrides, script, advisory, exercised = CASES[case]
    bed = TwoHostTestbed()
    config = RiptideConfig(**{"granularity": "prefix", **overrides})
    agent = RiptideAgent(bed.server, config)
    source = ScriptedRows(script)
    bed.server.fluid_sources.append(source)
    if advisory is not None:
        agent.advise_conservative(*advisory, reason="test")
    agent.start()
    bed.sim.run(until=TICKS * config.update_interval + 0.5)
    assert recorder.ticks == source.polls == TICKS
    assert recorder.mismatches == 0, recorder.report()
    assert exercised(recorder), (recorder.installs, recorder.withdrawals)


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        for study in sorted(STUDIES):
            recorder = Recorder().install(patch)
            STUDIES[study]()
            print(f"{study:18s} {recorder.ticks:6d} ticks  {recorder.installs:5d} installs  "
                  f"{recorder.withdrawals:4d} withdrawals  {recorder.mismatches} mismatches")
            patch.undo()
