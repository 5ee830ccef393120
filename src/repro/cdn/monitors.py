"""Measurement instrumentation for the evaluation.

The paper's Figure 10/11 methodology: "we sample the sizes of outgoing
connections each minute using the ss tool.  We further consider only
connections that were created after Riptide was started."
:class:`CwndSampler` reproduces that sampler over any set of hosts.

:class:`TimelineSampler` is the Figure 7/8 companion: it snapshots each
agent's learned windows and installed-route count (plus the cluster-wide
active-fault gauge) into the run's :class:`~repro.obs.timeline.Timeline`
on a sim-time cadence, giving the report and the CSV export a
windows-over-time view.  It also feeds the windowed time-series store
(:mod:`repro.obs.tsdb`) with the SLO engine's sampler-side signals
(per-agent route staleness, cluster fault count), arm-qualified so a
serial two-arm capture never mixes arms.

:class:`SloEvaluator` drives :class:`~repro.obs.slo.SloEngine` on the
same deterministic cadence.  Both are read-only: enabling them never
perturbs protocol behaviour or the seeded random streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.linux.host import Host
from repro.obs.slo import SloEngine
from repro.records import Frozen
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cdn.cluster import CdnCluster

#: Simulated seconds between :class:`TimelineSampler` snapshots, and the
#: :class:`SloEvaluator` cadence, so SLO windows and sampling align.
TIMELINE_SAMPLE_INTERVAL = 2.0


class CwndSample(Frozen):
    """One sampled congestion window."""

    __slots__ = ("time", "host_name", "remote_address", "cwnd", "bytes_acked")

    time: float
    host_name: str
    remote_address: str
    cwnd: int
    bytes_acked: int

    def __init__(
        self,
        time: float,
        host_name: str,
        remote_address: str,
        cwnd: int,
        bytes_acked: int,
    ) -> None:
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "host_name", host_name)
        object.__setattr__(self, "remote_address", remote_address)
        object.__setattr__(self, "cwnd", cwnd)
        object.__setattr__(self, "bytes_acked", bytes_acked)


class CwndSampler:
    """Periodically snapshots congestion windows across hosts."""

    def __init__(
        self,
        sim: Simulator,
        hosts: list[Host],
        interval: float = 60.0,
        created_after: float | None = None,
    ) -> None:
        if not hosts:
            raise ValueError("sampler needs at least one host")
        self._sim = sim
        self._hosts = list(hosts)
        self._created_after = created_after
        self._process = PeriodicProcess(sim, interval, self._sample, name="cwnd-sampler")
        self.samples: list[CwndSample] = []

    @property
    def running(self) -> bool:
        return self._process.running

    def start(self, initial_delay: float | None = None) -> None:
        self._process.start(initial_delay=initial_delay)

    def stop(self) -> None:
        self._process.stop()

    def cwnd_values(self) -> list[int]:
        """All sampled window sizes (the Figure 10/11 population)."""
        return [sample.cwnd for sample in self.samples]

    def _sample(self) -> None:
        now = self._sim.now
        for host in self._hosts:
            infos = host.ss.tcp_info(created_after=self._created_after)
            for info in infos:
                if info.bytes_acked == 0:  # only data-bearing connections
                    continue
                self.samples.append(
                    CwndSample(
                        time=now,
                        host_name=host.name,
                        remote_address=str(info.remote_address),
                        cwnd=info.cwnd,
                        bytes_acked=info.bytes_acked,
                    )
                )

    def __repr__(self) -> str:
        return f"<CwndSampler hosts={len(self._hosts)} samples={len(self.samples)}>"


class TimelineSampler:
    """Periodically snapshots cluster state into the run's timeline.

    Per agent host: ``installed_routes`` (route-table size) and one
    ``learned_cwnd:<prefix>`` series per learned destination.  Cluster
    wide: ``faults_active`` (the fault injector's gauge).  Sampling only
    reads state, so enabling it never perturbs protocol behaviour or the
    seeded random streams — the per-run results stay identical.
    """

    def __init__(self, cluster: "CdnCluster") -> None:
        self._cluster = cluster
        self._sim = cluster.sim
        self._timeline = cluster.sim.obs.timeline
        self._tsdb = cluster.sim.obs.tsdb
        label = cluster.config.label
        self._cluster_source = f"{label}:cluster" if label else "cluster"
        self._g_faults = cluster.sim.obs.metrics.gauge("faults_active")
        self._process = PeriodicProcess(
            cluster.sim, TIMELINE_SAMPLE_INTERVAL, self._sample, name="timeline-sampler"
        )

    @property
    def running(self) -> bool:
        return self._process.running

    def start(self, initial_delay: float | None = None) -> None:
        self._process.start(initial_delay=initial_delay)

    def stop(self) -> None:
        self._process.stop()

    def _sample(self) -> None:
        now = self._sim.now
        timeline = self._timeline
        tsdb = self._tsdb
        timeline.record(now, "cluster", "faults_active", self._g_faults.value)
        tsdb.record(now, self._cluster_source, "faults_active", self._g_faults.value)
        fluid = self._cluster.fluid
        if fluid is not None:
            timeline.record(now, "cluster", "fluid_flows_open", fluid.total_flows())
            timeline.record(now, "cluster", "fluid_mean_cwnd", fluid.mean_window())
        for agent in self._cluster.all_agents():
            host = agent.host
            timeline.record(
                now, host.name, "installed_routes", float(len(host.route_table))
            )
            entries = sorted(
                agent.learned_table().entries(),
                key=lambda entry: str(entry.destination),
            )
            # Route staleness: seconds since the least-recently refreshed
            # learned entry was updated (0 with an empty table) — the
            # "route_staleness" SLO's signal.
            staleness = 0.0
            for entry in entries:
                staleness = max(staleness, now - entry.updated_at)
                timeline.record(
                    now,
                    host.name,
                    f"learned_cwnd:{entry.destination}",
                    float(entry.window),
                )
            tsdb.record(now, host.name, "route_staleness", staleness)

    def __repr__(self) -> str:
        return (
            f"<TimelineSampler hosts={len(self._cluster.all_hosts())} "
            f"running={self.running}>"
        )


class SloEvaluator:
    """Drives an :class:`~repro.obs.slo.SloEngine` on a sim-time cadence.

    A read-only companion to :class:`TimelineSampler`: every
    ``TIMELINE_SAMPLE_INTERVAL`` simulated seconds it asks the engine to
    re-derive burn rates from the windowed store and walk the alert
    lifecycle.  Protocol behaviour and the seeded random streams are
    untouched.
    """

    def __init__(self, cluster: "CdnCluster", engine: SloEngine) -> None:
        self._sim = cluster.sim
        self.engine = engine
        self._process = PeriodicProcess(
            cluster.sim, TIMELINE_SAMPLE_INTERVAL, self._evaluate, name="slo-evaluator"
        )

    @property
    def running(self) -> bool:
        return self._process.running

    def start(self, initial_delay: float | None = None) -> None:
        self._process.start(initial_delay=initial_delay)

    def stop(self) -> None:
        self._process.stop()

    def _evaluate(self) -> None:
        self.engine.evaluate(self._sim.now)

    def __repr__(self) -> str:
        return (
            f"<SloEvaluator running={self.running} "
            f"specs={len(self.engine.specs)} rules={len(self.engine.rules)}>"
        )
