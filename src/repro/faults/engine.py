"""The fault injector: a schedule executed on the simulator clock.

:class:`FaultInjector` binds a :class:`~repro.faults.spec.FaultSchedule`
to a live :class:`~repro.cdn.cluster.CdnCluster`.  :meth:`arm` resolves
every spec's targets (failing fast on unknown PoPs) and schedules plain
simulator events for each injection and clearing — no background magic,
no wall clock.  Randomness (bursty storm channels, poll jitter) comes
from the cluster's named seeded streams, so a run with faults is as
reproducible as one without.

Every injection/clearing emits a ``FAULT_INJECTED``/``FAULT_CLEARED``
trace event and bumps the ``fault_injections`` counter (labelled by
kind); the ``faults_active`` gauge tracks how many faults are currently
in force.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.core.agent import RiptideAgent
from repro.faults.spec import (
    AgentCrash,
    FaultSchedule,
    FaultSpec,
    IpToolFault,
    LinkDegrade,
    LinkFlap,
    LossStorm,
    PollJitter,
    PopPartition,
    SsFault,
)
from repro.net.errors import NetworkError
from repro.net.link import DuplexLink
from repro.net.loss import GilbertElliottLoss, LossModel
from repro.obs.trace import EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cdn.cluster import CdnCluster

#: Trace-event source name for injector events.
_SOURCE = "fault-injector"

#: Gilbert-Elliott channel used by loss storms: the bad state is
#: entered with p=0.05 and left with p=0.25 per packet, so the channel
#: spends 1/6 of packets in bursts; ``loss_bad`` is then scaled so the
#: stationary loss rate matches the spec's ``loss_probability``.
_STORM_P_GOOD_TO_BAD = 0.05
_STORM_P_BAD_TO_GOOD = 0.25
_STORM_BAD_SHARE = _STORM_P_GOOD_TO_BAD / (
    _STORM_P_GOOD_TO_BAD + _STORM_P_BAD_TO_GOOD
)


def _storm_model(loss_probability: float) -> LossModel:
    return GilbertElliottLoss(
        p_good_to_bad=_STORM_P_GOOD_TO_BAD,
        p_bad_to_good=_STORM_P_BAD_TO_GOOD,
        loss_good=0.0,
        loss_bad=min(0.95, loss_probability / _STORM_BAD_SHARE),
    )


class FaultInjector:
    """Executes one fault schedule against one cluster."""

    def __init__(self, cluster: "CdnCluster", schedule: FaultSchedule) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self.armed_at: float | None = None
        self.injected = 0
        self.cleared = 0
        #: Injected, not yet cleared specs by schedule index, in injection order.
        self._active: dict[int, FaultSpec] = {}
        obs = cluster.sim.obs
        self._trace = obs.trace
        self._metrics = obs.metrics
        self._g_active = self._metrics.gauge("faults_active")
        self._obs_on = obs.enabled
        self._spans = obs.spans
        #: Open fault-window spans keyed by schedule index: a spec listed
        #: twice opens two windows.
        self._fault_spans: dict[int, object] = {}

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every fault relative to *now*.  Arm once per run."""
        if self.armed_at is not None:
            raise RuntimeError("fault schedule already armed")
        self.armed_at = self.cluster.sim.now
        for index, spec in enumerate(self.schedule):
            activate, deactivate = self._resolve(spec, index)
            self.cluster.sim.schedule(spec.at, self._inject, index, spec, activate)
            if spec.clear_at is not None and deactivate is not None:
                self.cluster.sim.schedule(
                    spec.clear_at, self._clear, index, spec, deactivate
                )

    def active_faults(self) -> list[FaultSpec]:
        """Specs injected but not yet cleared, in injection order."""
        return list(self._active.values())

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _inject(self, index: int, spec: FaultSpec, activate: Callable[[], dict]) -> None:
        detail = activate()
        self.injected += 1
        self._active[index] = spec
        self._metrics.counter("fault_injections", kind=spec.kind).inc()
        self._g_active.set(len(self._active))
        self._trace.record(
            self.cluster.sim.now,
            EventType.FAULT_INJECTED,
            _SOURCE,
            kind=spec.kind,
            fault=spec.describe(),
            **detail,
        )
        if self._obs_on:
            extras: dict[str, object] = {"kind": spec.kind}
            pop = getattr(spec, "pop", None)
            if pop is not None:
                extras["pop"] = pop
            span = self._spans.begin(
                self.cluster.sim.now,
                spec.describe(),
                "fault",
                _SOURCE,
                **extras,
            )
            if span is not None:
                self._fault_spans[index] = span

    def _clear(self, index: int, spec: FaultSpec, deactivate: Callable[[], dict]) -> None:
        detail = deactivate()
        self.cleared += 1
        self._active.pop(index, None)
        self._g_active.set(len(self._active))
        self._trace.record(
            self.cluster.sim.now,
            EventType.FAULT_CLEARED,
            _SOURCE,
            kind=spec.kind,
            fault=spec.describe(),
            **detail,
        )
        self._spans.end(self._fault_spans.pop(index, None), self.cluster.sim.now)

    # ------------------------------------------------------------------
    # target resolution (fails fast at arm time)
    # ------------------------------------------------------------------

    def _resolve(
        self, spec: FaultSpec, index: int
    ) -> tuple[Callable[[], dict], Callable[[], dict] | None]:
        """Bind a spec to its cluster targets; returns (activate, deactivate)."""
        if isinstance(spec, LinkFlap):
            trunk = self._trunk(spec.pop_a, spec.pop_b)
            return (
                lambda: self._link_down([trunk]),
                lambda: self._link_up([trunk]),
            )
        if isinstance(spec, LinkDegrade):
            trunk = self._trunk(spec.pop_a, spec.pop_b)
            return (
                lambda: self._degrade([trunk], spec),
                lambda: self._restore([trunk]),
            )
        if isinstance(spec, PopPartition):
            trunks = self._trunks_touching(spec.pop)
            return (
                lambda: self._link_down(trunks),
                lambda: self._link_up(trunks),
            )
        if isinstance(spec, LossStorm):
            trunks = self._trunks_touching(spec.pop)
            model = _storm_model(spec.loss_probability)
            return (
                lambda: self._loss_override(trunks, model),
                lambda: self._loss_override(trunks, None),
            )
        if isinstance(spec, SsFault):
            agents = self.cluster.agents(spec.pop)
            return (
                lambda: self._ss_fault(agents, spec.mode),
                lambda: self._ss_clear(agents),
            )
        if isinstance(spec, IpToolFault):
            agents = self.cluster.agents(spec.pop)
            return (
                lambda: self._ip_fault(agents),
                lambda: self._ip_clear(agents),
            )
        if isinstance(spec, AgentCrash):
            agents = self.cluster.agents(spec.pop)
            crashed: list[RiptideAgent] = []
            return (
                lambda: self._crash(agents, crashed),
                lambda: self._restart(crashed),
            )
        if isinstance(spec, PollJitter):
            agents = self.cluster.agents(spec.pop)
            rng = self.cluster.streams.stream(
                f"fault:poll_jitter:{spec.pop}:{index}"
            )
            jitter = lambda: rng.uniform(0.0, spec.amplitude)  # noqa: E731
            return (
                lambda: self._set_jitter(agents, jitter),
                lambda: self._set_jitter(agents, None),
            )
        raise TypeError(f"no handler for fault spec {spec!r}")

    def _trunk(self, pop_a: str, pop_b: str) -> DuplexLink:
        zone_a = self.cluster.pop(pop_a).prefix
        zone_b = self.cluster.pop(pop_b).prefix
        trunk = self.cluster.network.trunk_between(zone_a, zone_b)
        if trunk is None:
            raise NetworkError(f"no trunk between PoPs {pop_a} and {pop_b}")
        return trunk

    def _trunks_touching(self, pop: str) -> list[DuplexLink]:
        zone = self.cluster.pop(pop).prefix
        trunks = self.cluster.network.trunks_touching(zone)
        if not trunks:
            raise NetworkError(f"PoP {pop} has no trunks to fault")
        return trunks

    # ------------------------------------------------------------------
    # fault actions (each returns trace detail)
    # ------------------------------------------------------------------

    @staticmethod
    def _link_down(trunks: list[DuplexLink]) -> dict[str, object]:
        for trunk in trunks:
            trunk.set_down()
        return {"links": [trunk.name for trunk in trunks]}

    @staticmethod
    def _link_up(trunks: list[DuplexLink]) -> dict[str, object]:
        for trunk in trunks:
            trunk.set_up()
        return {"links": [trunk.name for trunk in trunks]}

    @staticmethod
    def _degrade(trunks: list[DuplexLink], spec: LinkDegrade) -> dict[str, object]:
        for trunk in trunks:
            trunk.degrade(spec.bandwidth_scale, spec.extra_delay)
        return {
            "links": [trunk.name for trunk in trunks],
            "bandwidth_scale": spec.bandwidth_scale,
            "extra_delay": spec.extra_delay,
        }

    @staticmethod
    def _restore(trunks: list[DuplexLink]) -> dict[str, object]:
        for trunk in trunks:
            trunk.restore()
        return {"links": [trunk.name for trunk in trunks]}

    @staticmethod
    def _loss_override(trunks: list[DuplexLink], model: LossModel | None) -> dict[str, object]:
        for trunk in trunks:
            trunk.set_loss_override(model)
        return {
            "links": [trunk.name for trunk in trunks],
            "model": repr(model) if model is not None else "configured",
        }

    @staticmethod
    def _ss_fault(agents: list[RiptideAgent], mode: str) -> dict[str, object]:
        for agent in agents:
            agent.host.ss.set_fault(mode)
        return {"hosts": [agent.host.name for agent in agents], "mode": mode}

    @staticmethod
    def _ss_clear(agents: list[RiptideAgent]) -> dict[str, object]:
        for agent in agents:
            agent.host.ss.clear_fault()
        return {"hosts": [agent.host.name for agent in agents]}

    @staticmethod
    def _ip_fault(agents: list[RiptideAgent]) -> dict[str, object]:
        for agent in agents:
            agent.host.ip.set_fault()
        return {"hosts": [agent.host.name for agent in agents]}

    @staticmethod
    def _ip_clear(agents: list[RiptideAgent]) -> dict[str, object]:
        for agent in agents:
            agent.host.ip.clear_fault()
        return {"hosts": [agent.host.name for agent in agents]}

    @staticmethod
    def _crash(agents: list[RiptideAgent], crashed: list[RiptideAgent]) -> dict[str, object]:
        # Only running agents crash (and only they restart later): on a
        # control arm no agent ever started, so the spec is a no-op there
        # rather than a restart that would *start* Riptide.
        for agent in agents:
            if agent.running:
                agent.crash()
                crashed.append(agent)
        return {"hosts": [agent.host.name for agent in crashed]}

    def _restart(self, crashed: list[RiptideAgent]) -> dict[str, object]:
        now = self.cluster.sim.now
        for agent in crashed:
            agent.start()
            self._trace.record(
                now, EventType.AGENT_RESTARTED, agent.host.name
            )
        return {"hosts": [agent.host.name for agent in crashed]}

    @staticmethod
    def _set_jitter(
        agents: list[RiptideAgent], jitter: Callable[[], float] | None
    ) -> dict[str, object]:
        for agent in agents:
            agent.set_poll_jitter(jitter)
        return {"hosts": [agent.host.name for agent in agents]}

    def __repr__(self) -> str:
        state = (
            "unarmed" if self.armed_at is None else f"armed@{self.armed_at:g}s"
        )
        return (
            f"<FaultInjector {state} specs={len(self.schedule)} "
            f"injected={self.injected} cleared={self.cleared}>"
        )
