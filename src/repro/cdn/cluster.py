"""Cluster assembly: topology + fabric + hosts + services + Riptide.

:class:`CdnCluster` turns a :class:`~repro.cdn.topology.Topology` into a
running deployment: one network zone and trunk mesh, ``server_count``
hosts per PoP each running a transfer server, a transfer client and
(optionally) a Riptide agent — the full system the paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cdn.filesizes import FileSizeDistribution
from repro.cdn.fluidtraffic import FluidTraffic
from repro.cdn.monitors import CwndSampler, SloEvaluator, TimelineSampler
from repro.cdn.pop import PoP
from repro.cdn.probes import ProbeFleet
from repro.cdn.topology import Topology
from repro.cdn.transfer import TransferClient, TransferServer
from repro.cdn.workload import OrganicWorkload, OrganicWorkloadConfig
from repro.core.agent import RiptideAgent
from repro.core.config import RiptideConfig
from repro.linux.host import Host
from repro.net.addresses import IPv4Address
from repro.net.loss import BernoulliLoss, LossModel, NoLoss
from repro.net.network import Network, PathSpec
from repro.obs.audit import Auditor
from repro.obs.instrument import Instrumentation
from repro.obs.slo import SloEngine, default_burn_rules, default_slos
from repro.sim.fluid import FluidConfig
from repro.sim.kernel import Simulator
from repro.sim.rand import RandomStreams
from repro.tcp.constants import TcpConfig


@dataclass(frozen=True, eq=False)
class ClusterConfig:
    """Deployment-wide parameters."""

    seed: int = 42
    #: Optional deployment tag ("control"/"riptide" in paired studies).
    #: Prefixes host names (``label:CODE-i``) so flow records and spans
    #: from two same-topology clusters under one capture stay separable.
    label: str = ""
    #: Trunk bandwidth between PoPs ("well provisioned links").
    bandwidth_bps: float = 1e9
    queue_limit_packets: int = 2048
    #: Light random WAN loss on every trunk.
    loss_probability: float = 0.0001
    #: Host TCP configuration.  The deployment raises the default initial
    #: receive window so it covers Riptide's c_max (Section III-C).
    tcp: TcpConfig = field(
        default_factory=lambda: TcpConfig(default_initrwnd=300)
    )
    #: Riptide configuration for agents (agents are created per host but
    #: only start when :meth:`CdnCluster.start_riptide` is called).
    riptide: RiptideConfig = field(default_factory=RiptideConfig)


class _PopDeployment:
    __slots__ = ("pop", "hosts", "servers", "clients", "agents")

    def __init__(
        self,
        pop: PoP,
        hosts: list[Host],
        servers: list[TransferServer],
        clients: list[TransferClient],
        agents: list[RiptideAgent],
    ) -> None:
        self.pop = pop
        self.hosts = hosts
        self.servers = servers
        self.clients = clients
        self.agents = agents


class CdnCluster:
    """A running CDN deployment on one simulator."""

    def __init__(
        self,
        topology: Topology,
        config: ClusterConfig | None = None,
    ) -> None:
        self.topology = topology
        self.config = config if config is not None else ClusterConfig()
        self.sim = Simulator()
        self.streams = RandomStreams(self.config.seed)
        self.network = Network(self.sim, self.streams)
        self._pops: dict[str, _PopDeployment] = {}
        self._workloads: list[OrganicWorkload] = []
        self._fluid: FluidTraffic | None = None
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        for pop in self.topology.pops:
            self.network.add_zone(pop.prefix)
        for a, b in self.topology.pairs():
            rtt = self.topology.rtt(a, b)
            self.network.connect_zones(
                a.prefix,
                b.prefix,
                PathSpec(
                    bandwidth_bps=self.config.bandwidth_bps,
                    propagation_delay=rtt / 2.0,
                    queue_limit_packets=self.config.queue_limit_packets,
                    loss_model=self._loss_model(),
                ),
            )
        for pop in self.topology.pops:
            self._deploy_pop(pop)

    def _loss_model(self) -> LossModel:
        if self.config.loss_probability <= 0.0:
            return NoLoss()
        return BernoulliLoss(self.config.loss_probability)

    def _deploy_pop(self, pop: PoP) -> None:
        hosts, servers, clients, agents = [], [], [], []
        label = self.config.label
        for index, address in enumerate(pop.server_addresses()):
            name = f"{pop.code}-{index}"
            host = Host(
                self.sim,
                self.network,
                address,
                config=self.config.tcp,
                name=f"{label}:{name}" if label else name,
            )
            hosts.append(host)
            servers.append(TransferServer(host))
            clients.append(TransferClient(host))
            agent = RiptideAgent(host, self.config.riptide)
            # Every agent audits its learned table against the route table
            # at the start of each poll tick (see repro.obs.audit).
            agent.attach_auditor(Auditor(agent))
            agents.append(agent)
        self._pops[pop.code] = _PopDeployment(pop, hosts, servers, clients, agents)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def pop_codes(self) -> list[str]:
        return list(self._pops)

    def pop(self, code: str) -> PoP:
        return self._deployment(code).pop

    def hosts(self, code: str) -> list[Host]:
        return self._deployment(code).hosts

    def all_hosts(self) -> list[Host]:
        return [host for dep in self._pops.values() for host in dep.hosts]

    def client(self, code: str, index: int = 0) -> TransferClient:
        return self._deployment(code).clients[index]

    def agents(self, code: str) -> list[RiptideAgent]:
        return self._deployment(code).agents

    def all_agents(self) -> list[RiptideAgent]:
        return [agent for dep in self._pops.values() for agent in dep.agents]

    @property
    def instrumentation(self) -> Instrumentation:
        """This deployment's metrics registry and trace log."""
        return self.sim.obs

    def server_address(self, code: str, index: int = 0) -> IPv4Address:
        return self._deployment(code).pop.server_addresses()[index]

    def _deployment(self, code: str) -> _PopDeployment:
        try:
            return self._pops[code]
        except KeyError:
            raise KeyError(f"no PoP {code!r} in this cluster") from None

    # ------------------------------------------------------------------
    # Riptide control
    # ------------------------------------------------------------------

    def start_riptide(self) -> float:
        """Start every PoP's agents.  Returns the start time — pass it to
        samplers as ``created_after`` per the paper's method."""
        started_at = self.sim.now
        for code in self.pop_codes:
            for agent in self._deployment(code).agents:
                agent.start()
        return started_at

    # ------------------------------------------------------------------
    # workloads and measurement
    # ------------------------------------------------------------------

    def add_organic_workload(
        self,
        source_pop: str,
        destination_pops: list[str],
        workload_config: OrganicWorkloadConfig | None = None,
        sizes: FileSizeDistribution | None = None,
    ) -> OrganicWorkload:
        """Attach (and start) organic traffic from a PoP's first host."""
        deployment = self._deployment(source_pop)
        destinations = []
        for code in destination_pops:
            if code == source_pop:
                continue
            destinations.extend(
                self._deployment(code).pop.server_addresses()
            )
        workload = OrganicWorkload(
            sim=self.sim,
            client=deployment.clients[0],
            destinations=destinations,
            sizes=sizes if sizes is not None else FileSizeDistribution.production_cdn(),
            rng=self.streams.stream(f"organic:{source_pop}:0"),
            config=workload_config,
            name=f"organic:{source_pop}",
        )
        workload.start()
        self._workloads.append(workload)
        return workload

    @property
    def fluid(self) -> FluidTraffic | None:
        """The mean-field background engine, if one was attached."""
        return self._fluid

    def fluid_traffic(self, config: FluidConfig | None = None) -> FluidTraffic:
        """The cluster's fluid engine, created (and started) on first use."""
        if self._fluid is None:
            self._fluid = FluidTraffic(self.sim, self.network, config)
            self._fluid.start()
        return self._fluid

    def add_fluid_traffic(
        self,
        source_pop: str,
        destination_pops: list[str],
        flows_per_destination: float,
        growth_segments_per_sec: float | None = None,
        send_segments_per_flow_per_sec: float | None = None,
        churn_per_flow_per_sec: float = 0.0,
        is_client: bool = False,
        config: FluidConfig | None = None,
    ) -> FluidTraffic:
        """Attach mean-field background cohorts from a PoP's first host.

        The hybrid-mode sibling of :meth:`add_organic_workload`: one
        :class:`~repro.sim.fluid.FluidPopulation` per destination PoP
        (``flows_per_destination`` open flows each) registers on the
        host, shows up in its ``ss`` polls, and presses on the trunks
        its traffic crosses.  Register *after* ``start_riptide`` when a
        no-churn cohort must pass the sampler's created-after filter.
        """
        engine = self.fluid_traffic(config)
        deployment = self._deployment(source_pop)
        host = deployment.hosts[0]
        for code in destination_pops:
            if code == source_pop:
                continue
            engine.add_population(
                host,
                self.server_address(code),
                target_flows=flows_per_destination,
                growth_segments_per_sec=growth_segments_per_sec,
                send_segments_per_flow_per_sec=send_segments_per_flow_per_sec,
                churn_per_flow_per_sec=churn_per_flow_per_sec,
                is_client=is_client,
            )
        return engine

    def make_probe_fleet(
        self,
        source_pops: list[str],
        interval: float = 10.0,
        sizes: tuple[int, ...] | None = None,
        host_indices: list[int] | None = None,
        close_before_round: bool = False,
        churn_probability: float = 0.0,
    ) -> ProbeFleet:
        """Build the Section IV-A probe infrastructure.

        Sources are the hosts at ``host_indices`` (default: host 0) in
        each listed PoP; targets are every PoP in the cluster (one server
        each).
        """
        def rtt_lookup(src_code: str, dst_code: str) -> float:
            return self.topology.rtt(self.pop(src_code), self.pop(dst_code))

        kwargs = {} if sizes is None else {"sizes": sizes}
        fleet = ProbeFleet(
            self.sim,
            rtt_lookup,
            interval=interval,
            close_before_round=close_before_round,
            churn_probability=churn_probability,
            rng=self.streams.stream("probe-churn"),
            arm=self.config.label,
            **kwargs,
        )
        for code in source_pops:
            deployment = self._deployment(code)
            for index in host_indices if host_indices is not None else [0]:
                fleet.add_source(deployment.pop, deployment.clients[index])
        for code in self.pop_codes:
            fleet.add_target(self.pop(code), self.server_address(code))
        return fleet

    def make_cwnd_sampler(
        self,
        interval: float = 60.0,
        created_after: float | None = None,
        pop_codes: list[str] | None = None,
    ) -> CwndSampler:
        """The Figure 10/11 per-minute window sampler."""
        hosts = (
            self.all_hosts()
            if pop_codes is None
            else [h for code in pop_codes for h in self.hosts(code)]
        )
        return CwndSampler(
            self.sim, hosts, interval=interval, created_after=created_after
        )

    def start_timeline_sampler(self) -> "TimelineSampler | None":
        """Start the Figure 7/8 timeline sampler (no-op when obs is off)."""
        if not self.sim.obs.enabled:
            return None
        sampler = TimelineSampler(self)
        sampler.start(initial_delay=0.0)
        return sampler

    def start_slo(self) -> "SloEvaluator | None":
        """Start the burn-rate SLO engine (no-op when obs is off).

        Builds an :class:`~repro.obs.slo.SloEngine` with the default SLOs
        and burn rules over this run's windowed store, scoped to this
        cluster's arm label, and evaluates it on the timeline-sampler
        cadence.
        """
        if not self.sim.obs.enabled:
            return None
        obs = self.sim.obs
        engine = SloEngine(
            obs.tsdb,
            obs.metrics,
            obs.trace,
            obs.spans,
            obs.alerts,
            specs=default_slos(),
            rules=default_burn_rules(),
            arm=self.config.label,
        )
        evaluator = SloEvaluator(self, engine)
        evaluator.start(initial_delay=0.0)
        return evaluator

    def sync_flows(self) -> None:
        """Flush live socket counters into their flow records.

        Teardown does this for closed connections; call this at the end
        of a run so flows still open report counters as of the final
        instant instead of zeros.
        """
        for host in self.all_hosts():
            for sock in host.sockets():
                sock.sync_flow()

    def run(self, duration: float) -> float:
        """Advance the whole deployment by ``duration`` simulated seconds."""
        return self.sim.run(until=self.sim.now + duration)

    def __repr__(self) -> str:
        return (
            f"<CdnCluster pops={len(self._pops)} "
            f"hosts={sum(len(d.hosts) for d in self._pops.values())} "
            f"t={self.sim.now:.1f}s>"
        )


def with_riptide_config(config: ClusterConfig, **overrides) -> ClusterConfig:
    """A copy of ``config`` with fields of its Riptide config replaced."""
    return replace(config, riptide=replace(config.riptide, **overrides))
