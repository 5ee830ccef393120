"""The study arm every simulation-backed study runs, and its builders.

Section IV is one experiment shape: identical hosts and traffic, arms
that differ in one thing, diagnostic probes bucketed by RTT.
:class:`StudyArm` describes one arm and :func:`run_study_arm` runs it;
the probe, chaos, hybrid-differential and tournament studies differ only
in the arms they describe.

The paper evaluates on the production 34-PoP CDN over 12-20 hours.  The
simulated counterpart compresses wall-clock (probes every few seconds
instead of hourly, minutes of simulated time instead of hours) and, for
affordable runs, uses a representative sub-topology spanning all RTT
buckets.  Per-transfer timings are unaffected by the compression; only
the number of samples shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Protocol

from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.cdn.probes import ProbeFleet, ProbeResultSet
from repro.cdn.topology import Topology, build_paper_topology
from repro.cdn.workload import OrganicWorkloadConfig
from repro.core.config import RiptideConfig
from repro.faults.engine import FaultInjector
from repro.faults.scenarios import get_scenario
from repro.obs.slo import AlertEpisode, source_matches_arm
from repro.parallel.executor import run_tasks
from repro.records import Frozen
from repro.tcp.constants import TcpConfig

#: The two vantage PoPs of Section IV-B: one European, one North American.
EU_SOURCE = "LHR"
NA_SOURCE = "JFK"
#: The probe study's probing PoPs.
PROBE_SOURCE_POPS = (EU_SOURCE, NA_SOURCE)

#: Organic traffic rate per source host (fetches/second) in every study.
ORGANIC_RATE = 3.0
#: Probability a study's organic connection closes after a fetch (churn).
CLOSE_PROBABILITY = 0.35

#: A sub-topology that spans every Figure 12-14 RTT bucket from both
#: vantage points: metro-close (AMS/IAD), mid (ARN/ORD/DFW), far
#: (JFK<->LHR), very far (NRT, SYD, GRU).
EVALUATION_POP_CODES = (
    "LHR",
    "AMS",
    "ARN",
    "MAD",
    "JFK",
    "IAD",
    "ORD",
    "DFW",
    "NRT",
    "SYD",
    "GRU",
)


#: Fraction of idle probe connections closed before each probe round.
#: Reproduces the paper's probe population: most probes reuse an existing
#: connection (unchanged by Riptide), the rest open cold.
PROBE_CHURN = 0.4


def sub_topology(codes: tuple[str, ...] = EVALUATION_POP_CODES) -> Topology:
    """The paper topology restricted to a set of PoP codes."""
    full = build_paper_topology()
    wanted = set(codes)
    missing = wanted - {pop.code for pop in full.pops}
    if missing:
        raise KeyError(f"unknown PoP codes: {sorted(missing)}")
    return Topology(pops=tuple(pop for pop in full.pops if pop.code in wanted))


def add_organic_mesh(
    cluster: CdnCluster,
    workload_config: OrganicWorkloadConfig,
    codes: list[str] | None = None,
) -> None:
    """Organic fetches from host 0 of every PoP to every other PoP.

    ``codes`` restricts the mesh to a subset of the cluster's PoPs (the
    rest neither fetch nor serve organic traffic).
    """
    codes = cluster.pop_codes if codes is None else codes
    for code in codes:
        # A PoP never fetches from itself: the cluster skips it.
        cluster.add_organic_workload(code, codes, workload_config)


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """The knobs every paired study shares; each family adds its own."""

    seed: int = 42
    #: Simulated seconds of organic traffic before probing (and faults).
    warmup: float = 20.0
    #: Simulated seconds of probing; fault schedules are scaled to it.
    duration: float = 60.0
    #: Seconds between probe rounds (the paper's "hourly", compressed).
    probe_interval: float = 6.0
    #: The evaluation uses prefix granularity — one learned route per
    #: remote PoP /16 — so organic traffic between any pair of machines
    #: teaches the initcwnd used for probe responses to that PoP
    #: (Section III-B, "Destinations as Routes").
    riptide: RiptideConfig = field(
        default_factory=lambda: RiptideConfig(granularity="prefix")
    )
    #: The evaluation hosts disable slow-start-after-idle (a common CDN
    #: tuning), so a *reused* connection keeps its grown window: reused
    #: probes are the unchanged bulk of the CDFs, cold probes the part
    #: Riptide improves — the Figure 12-14 population structure.
    cluster: ClusterConfig = field(
        default_factory=lambda: ClusterConfig(
            tcp=TcpConfig(default_initrwnd=300, slow_start_after_idle=False)
        )
    )

    def arm(self, **specifics: Any) -> "StudyArm":
        """One arm of this study: the shared knobs plus ``specifics``."""
        shared = {f.name: getattr(self, f.name) for f in fields(StudyConfig)}
        return StudyArm(**shared, **specifics)


@dataclass(frozen=True, eq=False)
class ProbeStudyConfig(StudyConfig):
    """Knobs for a paired (control vs Riptide) probe study."""

    topology_codes: tuple[str, ...] = EVALUATION_POP_CODES


class Background(Protocol):
    """The traffic a study's probes ride alongside."""

    def register(self, cluster: CdnCluster, arm: "StudyArm") -> None:
        """Attach (and start) the background traffic on a fresh cluster."""


class PacketMesh(Frozen):
    """Packet-granular organic fetches between every pair of PoPs."""

    __slots__ = ("fluid_flows_per_pair",)

    #: Mean-field flows per PoP pair sharing every trunk with the mesh
    #: (0 = none).
    fluid_flows_per_pair: float

    def __init__(self, fluid_flows_per_pair: float = 0.0) -> None:
        object.__setattr__(self, "fluid_flows_per_pair", fluid_flows_per_pair)

    def register(self, cluster: CdnCluster, arm: "StudyArm") -> None:
        add_organic_mesh(
            cluster,
            OrganicWorkloadConfig(
                rate_per_second=ORGANIC_RATE,
                close_probability=CLOSE_PROBABILITY,
                max_object_bytes=arm.max_object_bytes,
            ),
        )
        if self.fluid_flows_per_pair > 0:
            for code in cluster.pop_codes:
                cluster.add_fluid_traffic(
                    code,
                    cluster.pop_codes,
                    flows_per_destination=self.fluid_flows_per_pair,
                )


@dataclass(frozen=True, eq=False, kw_only=True)
class StudyArm(StudyConfig):
    """One arm of a study, fully described: what :func:`run_study_arm` runs.

    The arms of one study share everything but the field under test —
    Riptide on or off (probe, chaos), the background substrate (hybrid
    differential), the window policy inside ``riptide`` (tournament).
    """

    pop_codes: tuple[str, ...]
    #: PoPs whose dedicated host (host 1) issues the diagnostic probes.
    source_pops: tuple[str, ...]
    #: Deployment tag: prefixes host names, scopes the SLO engine and
    #: keeps two same-topology arms separable under one capture.
    label: str
    #: Whether the Riptide agents run (off = the IW10 control group).
    riptide_enabled: bool
    #: Chaos scenario whose fault schedule runs during probing.
    fault_scenario: str | None = None
    #: Whether the burn-rate SLO engine evaluates the run.
    slo: bool = False
    #: Cap on the size of an organically fetched object.
    max_object_bytes: int = OrganicWorkloadConfig.max_object_bytes
    background: Background = field(default_factory=PacketMesh)


#: Per-agent resilience and route counters a summary totals over the arm.
_AGENT_COUNTERS = (
    "guard_trips",
    "crashes",
    "poll_failures",
    "tool_errors",
    "tool_retries",
    "routes_installed",
    "routes_expired",
)


class StudyRun:
    """One live arm: the cluster it ran on and what was attached to it."""

    __slots__ = ("arm", "cluster", "fleet", "injector")

    def __init__(
        self,
        arm: StudyArm,
        cluster: CdnCluster,
        fleet: ProbeFleet,
        injector: FaultInjector | None,
    ) -> None:
        self.arm = arm
        self.cluster = cluster
        self.fleet = fleet
        #: The armed fault schedule (None when the arm names no scenario).
        self.injector = injector

    def summary(self) -> "StudySummary":
        """Detach the picklable measurements from the live cluster."""
        cluster = self.cluster
        agents = cluster.all_agents()
        advisories: dict[tuple[str, str], int] = {}
        for code in cluster.pop_codes:
            windows = cluster.agents(code)[0].learned_table().windows()
            for prefix, window in sorted(windows.items(), key=lambda kv: str(kv[0])):
                advisories[(code, str(prefix))] = window
        # Only this arm's alert episodes: a serial run captures both arms
        # into one shared log, so filter by the arm-qualified source.
        alerts = tuple(
            episode
            for episode in cluster.sim.obs.alerts.episodes()
            if source_matches_arm(episode.source, self.arm.label)
        )
        fluid = cluster.fluid
        return StudySummary(
            riptide_enabled=self.arm.riptide_enabled,
            fleet=self.fleet.result_set(),
            learned_routes=sum(len(agent.learned_table()) for agent in agents),
            events_processed=cluster.sim.events_processed,
            advisories=advisories,
            alerts=alerts,
            faults_injected=self.injector.injected if self.injector else 0,
            faults_cleared=self.injector.cleared if self.injector else 0,
            fluid_flows=fluid.total_flows() if fluid is not None else 0.0,
            fluid_steps=fluid.steps if fluid is not None else 0,
            **{
                name: sum(getattr(agent.stats, name) for agent in agents)
                for name in _AGENT_COUNTERS
            },
        )


class StudySummary:
    """The measurements of one arm, detached from its simulator.

    This is what a parallel worker ships back to the parent process: the
    probe results (behind the same ``fleet`` accessors the figure
    harnesses use on a live run) plus the run's counters.  The live
    cluster — sockets, callbacks, the event heap — stays in the worker
    and is discarded with it.
    """

    __slots__ = (
        "riptide_enabled", "fleet", "learned_routes", "events_processed", "advisories", "alerts",
        "faults_injected", "faults_cleared", "fluid_flows", "fluid_steps", "guard_trips",
        "crashes", "poll_failures", "tool_errors", "tool_retries", "routes_installed",
        "routes_expired",
    )

    def __init__(
        self,
        riptide_enabled: bool,
        fleet: ProbeResultSet,
        learned_routes: int,
        events_processed: int,
        advisories: dict[tuple[str, str], int],
        alerts: tuple[AlertEpisode, ...],
        faults_injected: int,
        faults_cleared: int,
        fluid_flows: float,
        fluid_steps: int,
        guard_trips: int,
        crashes: int,
        poll_failures: int,
        tool_errors: int,
        tool_retries: int,
        routes_installed: int,
        routes_expired: int,
    ) -> None:
        self.riptide_enabled = riptide_enabled
        self.fleet = fleet
        self.learned_routes = learned_routes
        self.events_processed = events_processed
        #: (pop_code, destination prefix) -> learned window on host 0's agent.
        self.advisories = advisories
        #: This arm's SLO alert episodes (begin order, arm-filtered).
        self.alerts = alerts
        self.faults_injected = faults_injected
        self.faults_cleared = faults_cleared
        self.fluid_flows = fluid_flows
        self.fluid_steps = fluid_steps
        self.guard_trips = guard_trips
        self.crashes = crashes
        self.poll_failures = poll_failures
        self.tool_errors = tool_errors
        self.tool_retries = tool_retries
        self.routes_installed = routes_installed
        self.routes_expired = routes_expired


#: What the figure harnesses actually consume: a live arm (serial path)
#: or a detached summary (parallel path) — both expose ``fleet``
#: accessors and ``riptide_enabled``.
ProbeStudyArm = StudyRun | StudySummary


def run_study_arm(arm: StudyArm) -> StudyRun:
    """Build and run one arm: the one copy of the study sequence.

    Background traffic warms the deployment (and teaches Riptide, where
    it runs) before anything is measured.  Probes then run from a
    dedicated machine (host 1) in each source PoP, mirroring the paper's
    diagnostic fleet riding alongside organic traffic; a fraction of
    idle probe connections churns away before each round, so the probe
    population mixes warm reuse with the fresh connections Riptide
    jump-starts.  Faults are armed with the first probe round, so their
    schedule is relative to the start of probing.
    """
    cluster = CdnCluster(
        sub_topology(arm.pop_codes),
        replace(arm.cluster, seed=arm.seed, riptide=arm.riptide, label=arm.label),
    )
    arm.background.register(cluster, arm)
    if arm.riptide_enabled:
        cluster.start_riptide()
    cluster.run(arm.warmup)
    fleet = cluster.make_probe_fleet(
        list(arm.source_pops),
        interval=arm.probe_interval,
        host_indices=[1],
        churn_probability=PROBE_CHURN,
    )
    cluster.start_timeline_sampler()
    if arm.slo:
        cluster.start_slo()
    fleet.start(initial_delay=0.0)
    injector = None
    if arm.fault_scenario is not None:
        schedule = get_scenario(arm.fault_scenario).build(arm.duration)
        injector = FaultInjector(cluster, schedule)
        injector.arm()
    cluster.run(arm.duration)
    cluster.sync_flows()
    return StudyRun(arm=arm, cluster=cluster, fleet=fleet, injector=injector)


def run_arm_pair(
    study: str, arms: tuple[StudyArm, StudyArm], workers: int = 1
) -> tuple[StudySummary, StudySummary]:
    """Run the two arms of ``study``; detached summaries, in arm order.

    The arms are fully independent simulations, so with ``workers`` > 1
    they run concurrently in forked worker processes
    (:mod:`repro.parallel`) — byte-identical measurements to the serial
    path, whose live clusters can be collected as soon as each arm ends.
    """
    first, second = run_tasks(
        [lambda arm=arm: run_study_arm(arm).summary() for arm in arms],
        workers=min(workers, 2),
        labels=[f"{study}:{arm.label}" for arm in arms],
    )
    return first, second


def control_and_riptide(
    config: StudyConfig, **specifics: Any
) -> tuple[StudyArm, StudyArm]:
    """The ``(control, riptide)`` arms of a paired study.

    Both share seed, topology, workload and probe schedule; the only
    difference is whether the Riptide agents run.
    """
    control, riptide = (
        config.arm(
            label="riptide" if enabled else "control",
            riptide_enabled=enabled,
            **specifics,
        )
        for enabled in (False, True)
    )
    return control, riptide


def probe_study_arms(config: ProbeStudyConfig) -> tuple[StudyArm, StudyArm]:
    """The ``(control, riptide)`` arms of the Figure 12-16 probe study."""
    return control_and_riptide(
        config, pop_codes=config.topology_codes, source_pops=PROBE_SOURCE_POPS
    )


def run_paired_probe_study(
    config: ProbeStudyConfig | None = None,
    workers: int = 1,
) -> tuple[ProbeStudyArm, ProbeStudyArm]:
    """Run control and Riptide arms; returns ``(control, riptide)``.

    With ``workers`` > 1 the arms run concurrently and come back as
    detached :class:`StudySummary` objects (:func:`run_arm_pair`).  The
    serial path keeps returning live :class:`StudyRun` objects so
    callers can keep inspecting clusters and agents.
    """
    arms = probe_study_arms(config if config is not None else ProbeStudyConfig())
    if workers > 1:
        return run_arm_pair("probe-study", arms, workers)
    control, riptide = (run_study_arm(arm) for arm in arms)
    return control, riptide
