"""Hybrid mode: mean-field background traffic under packet-granular probes.

Two entry points share the machinery:

* :func:`run` / :func:`run_scale` — the headline scenario: the full
  34-PoP paper topology carrying **one million open background flows
  per measurement window** as fluid cohorts
  (:class:`~repro.cdn.fluidtraffic.FluidTraffic`), while the probe
  fleet and a sampled slice of organic flows stay packet-granular on
  the event kernel.  Per-packet simulation of that population would
  need billions of events; the fluid engine steps each cohort's cwnd
  *distribution* on a coarse cadence, so cost scales with (pairs ×
  steps), not flows.

* :func:`run_differential` — the validation harness: at small scale,
  run the same seeded scenario twice, once with packet-granular
  background traffic and once with fluid cohorts whose drift/churn
  parameters are *derived from the packet workload's own configuration*
  (fetch rate, object-size distribution, close probability), and
  compare what Riptide actually learns plus the Figure 3/6-style probe
  anchors (completion-time distributions per RTT bucket, first-RTT
  completion fractions).  The differential tests in
  ``tests/experiments/test_hybrid.py`` hold these within tolerance
  across seeds.

The parameter derivation that makes the two arms comparable: a packet
workload fetches per destination address at rate ``λ = organic_rate /
n_addresses``.  Each fetch of ``S`` segments grows the serving socket's
window by about ``S`` (slow start adds one segment per acked segment),
and closes it with probability ``p``.  The fluid mirror is a cohort
with additive drift ``λ·S̄`` segments/s, per-flow churn ``λ·p`` and
re-entry at the currently routed initial window — whose fixed point
``entry + S̄/p`` equals the packet population's steady-state mean.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.tables import format_table
from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.cdn.filesizes import FileSizeDistribution
from repro.cdn.probes import PAPER_PROBE_SIZES, ProbeResultSet
from repro.cdn.topology import build_paper_topology
from repro.cdn.transfer import RTT_BUCKETS
from repro.cdn.workload import OrganicWorkloadConfig
from repro.core.config import RiptideConfig
from repro.experiments.scenarios import (
    PacketMesh,
    StudyArm,
    StudyConfig,
    StudySummary,
    run_arm_pair,
    run_study_arm,
)
from repro.sim.fluid import FluidConfig
from repro.tcp.constants import DEFAULT_MSS, TcpConfig

BUCKET_LABELS = tuple(label for label, _ in RTT_BUCKETS)

#: Differential sub-topology: near / far / very far from both vantages.
DIFFERENTIAL_POP_CODES = ("LHR", "JFK", "NRT")


# ----------------------------------------------------------------------
# shared parameter derivation
# ----------------------------------------------------------------------


#: Quantiles :func:`mean_object_segments` integrates the size distribution at.
SIZE_QUANTILES = 200


def mean_object_segments(sizes: FileSizeDistribution, max_object_bytes: int) -> float:
    """Expected segments per fetched object, capped like the workload.

    Deterministic mid-quantile integration of the size distribution —
    no sampling, so both differential arms derive the same value.
    """
    total = 0.0
    for i in range(SIZE_QUANTILES):
        q = (i + 0.5) / SIZE_QUANTILES
        size = min(sizes.quantile(q), float(max_object_bytes))
        total += math.ceil(size / DEFAULT_MSS)
    return total / SIZE_QUANTILES


# ----------------------------------------------------------------------
# differential study (validation)
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HybridStudyConfig(StudyConfig):
    """One seeded small-scale scenario, runnable in either mode.

    The fluid arm derives its drift/churn from the packet arm's organic
    rate, close probability and object cap.
    """

    topology_codes: tuple[str, ...] = DIFFERENTIAL_POP_CODES
    source_pops: tuple[str, ...] = ("LHR",)
    warmup: float = 15.0
    duration: float = 45.0
    probe_interval: float = 5.0
    #: Cap on fetched object size.  Kept moderate so the learned windows
    #: sit *between* the floor and c_max — a discriminating regime where
    #: the two arms could actually disagree.
    max_object_bytes: int = 120_000


class FluidMirror:
    """Fluid cohorts mirroring the organic mesh the packet arm would run.

    For each host 0 and each remote PoP, two cohorts reproduce what the
    packet arm's ``ss`` polls would show toward that prefix: the serving
    sockets (one per remote fetching client, windows grown by whole
    objects) and the fetching sockets (one per remote address, windows
    grown only by requests, one segment each).
    """

    def register(self, cluster: CdnCluster, arm: StudyArm) -> None:
        sizes = FileSizeDistribution.production_cdn()
        mean_segments = mean_object_segments(sizes, arm.max_object_bytes)
        codes = cluster.pop_codes
        for code in codes:
            others = [c for c in codes if c != code]
            n_addresses = sum(
                len(cluster.pop(c).server_addresses()) for c in others
            )
            rate_per_address = arm.organic_rate / n_addresses
            churn = rate_per_address * arm.close_probability
            for dest in others:
                # Serving side: the remote PoP's one workload client fetches
                # whole objects from this host.  The socket is idle between
                # fetches, so its send rate — and therefore its loss
                # exposure — is the fetch schedule's, not w/rtt.
                serve_rate = rate_per_address * mean_segments
                cluster.add_fluid_traffic(
                    code,
                    [dest],
                    flows_per_destination=1.0,
                    growth_segments_per_sec=serve_rate,
                    send_segments_per_flow_per_sec=serve_rate,
                    churn_per_flow_per_sec=churn,
                )
                # Fetching side: this host's workload client holds one
                # connection per remote address, grown by one request
                # segment per fetch.
                fetch_rate = rate_per_address
                cluster.add_fluid_traffic(
                    code,
                    [dest],
                    flows_per_destination=float(
                        len(cluster.pop(dest).server_addresses())
                    ),
                    growth_segments_per_sec=fetch_rate,
                    send_segments_per_flow_per_sec=fetch_rate,
                    churn_per_flow_per_sec=churn,
                    is_client=True,
                )


def differential_arm(config: HybridStudyConfig, mode: str) -> StudyArm:
    """One seeded arm: ``mode`` is ``"packet"`` or ``"hybrid"``.

    Both arms share seed, topology, Riptide config and the (packet
    granular) probe schedule; only the background population's substrate
    differs.
    """
    backgrounds = {
        "packet": PacketMesh(),
        "hybrid": FluidMirror(),
    }
    if mode not in backgrounds:
        raise ValueError(f"mode must be 'packet' or 'hybrid', got {mode!r}")
    return config.arm(
        pop_codes=config.topology_codes,
        source_pops=config.source_pops,
        label=mode,
        riptide_enabled=True,
        max_object_bytes=config.max_object_bytes,
        background=backgrounds[mode],
    )


def run_arm(config: HybridStudyConfig, mode: str) -> StudySummary:
    """Run one arm of the differential and detach its measurements."""
    return run_study_arm(differential_arm(config, mode)).summary()


class HybridDifferentialResult:
    """Packet vs hybrid agreement on learning and probe anchors."""

    __slots__ = ("packet", "hybrid")

    def __init__(self, packet: StudySummary, hybrid: StudySummary) -> None:
        self.packet = packet
        self.hybrid = hybrid

    # -- learner agreement ---------------------------------------------

    def advisory_pairs(self) -> dict[tuple[str, str], tuple[int, int]]:
        """(pop, prefix) -> (packet window, hybrid window); 0 = unlearned."""
        keys = sorted(set(self.packet.advisories) | set(self.hybrid.advisories))
        return {
            key: (
                self.packet.advisories.get(key, 0),
                self.hybrid.advisories.get(key, 0),
            )
            for key in keys
        }

    def advisory_max_rel_delta(self) -> float:
        """Worst per-destination relative disagreement of learned windows."""
        worst = 0.0
        for packet_window, hybrid_window in self.advisory_pairs().values():
            top = max(packet_window, hybrid_window)
            if top == 0:
                continue
            worst = max(worst, abs(packet_window - hybrid_window) / top)
        return worst

    # -- Figure 6 anchor: probe completion-time distributions ----------

    def anchor_median_deltas(self) -> dict[tuple[int, str], float]:
        """Relative median completion-time delta per (size, RTT bucket)."""
        deltas: dict[tuple[int, str], float] = {}
        for size in PAPER_PROBE_SIZES:
            for bucket in BUCKET_LABELS:
                packet_times = self.packet.fleet.completion_times(
                    size_bytes=size, bucket=bucket
                )
                hybrid_times = self.hybrid.fleet.completion_times(
                    size_bytes=size, bucket=bucket
                )
                if not packet_times or not hybrid_times:
                    continue
                packet_median = EmpiricalCdf(packet_times).median
                hybrid_median = EmpiricalCdf(hybrid_times).median
                top = max(packet_median, hybrid_median)
                deltas[(size, bucket)] = (
                    abs(packet_median - hybrid_median) / top if top else 0.0
                )
        return deltas

    def anchor_max_rel_delta(self) -> float:
        deltas = self.anchor_median_deltas()
        return max(deltas.values()) if deltas else 0.0

    # -- Figure 3 anchor: transfers completing in the first RTTs -------

    def first_window_fractions(self, size_bytes: int) -> tuple[float, float]:
        """Fraction of probes finishing within ~2 path RTTs, per arm.

        Two RTTs = handshake + one data round: the Figure 3 "completes
        in the first RTT" population, measured instead of modelled.
        """
        def fraction(probes: ProbeResultSet) -> float:
            results = probes.completed_results(size_bytes=size_bytes)
            if not results:
                return 0.0
            fast = sum(
                1 for probe in results
                if probe.total_time <= 2.25 * probe.path_rtt
            )
            return fast / len(results)

        return fraction(self.packet.fleet), fraction(self.hybrid.fleet)

    def first_window_fraction_delta(self) -> float:
        """Worst absolute disagreement of the Figure 3-style fractions."""
        worst = 0.0
        for size in PAPER_PROBE_SIZES:
            packet_fraction, hybrid_fraction = self.first_window_fractions(size)
            worst = max(worst, abs(packet_fraction - hybrid_fraction))
        return worst

    def report(self) -> str:
        rows = []
        for (code, prefix), (pw, hw) in sorted(self.advisory_pairs().items()):
            top = max(pw, hw)
            delta = abs(pw - hw) / top if top else 0.0
            rows.append((code, prefix, str(pw), str(hw), f"{delta:.0%}"))
        table = format_table(
            ("pop", "destination", "packet", "hybrid", "delta"),
            rows,
            title="Hybrid differential: learned windows per destination",
        )
        lines = [
            table,
            f"\nadvisory max delta: {self.advisory_max_rel_delta():.1%}",
            f"probe median max delta: {self.anchor_max_rel_delta():.1%}",
            f"first-RTT fraction max delta: "
            f"{self.first_window_fraction_delta():.2f}",
            f"events: packet={self.packet.events_processed:,} "
            f"hybrid={self.hybrid.events_processed:,} "
            f"(hybrid background flows: {self.hybrid.fluid_flows:.0f} fluid, "
            f"{self.hybrid.fluid_steps} steps)",
        ]
        return "\n".join(lines)


def run_differential(config: HybridStudyConfig | None = None) -> HybridDifferentialResult:
    """Run the packet and hybrid arms, one after the other, and compare;
    ``(packet, hybrid)``."""
    config = config if config is not None else HybridStudyConfig()
    packet, hybrid = run_arm_pair(
        "hybrid-study",
        (differential_arm(config, "packet"), differential_arm(config, "hybrid")),
    )
    return HybridDifferentialResult(packet=packet, hybrid=hybrid)


# ----------------------------------------------------------------------
# the 34-PoP / 10^6-flow scale scenario
# ----------------------------------------------------------------------

#: The scale run's fluid discretization: half-second steps, 4-segment bins.
SCALE_FLUID = FluidConfig(cadence=0.5, bin_width=4)


@dataclass(frozen=True, eq=False)
class HybridScaleConfig:
    """The headline hybrid run: full paper topology, 10^6 open flows."""

    seed: int = 42
    #: Open background flows per ordered PoP pair.  34 PoPs give
    #: 34 * 33 = 1122 pairs; 900 flows each is 1,009,800 open flows.
    flows_per_pair: float = 900.0
    warmup: float = 5.0
    duration: float = 25.0
    probe_interval: float = 5.0
    source_pops: tuple[str, ...] = ("LHR", "JFK")
    #: Additive drift per background flow (segments/second).
    growth_segments_per_sec: float = 2.0
    #: Per-flow departure rate (connection churn).
    churn_per_flow_per_sec: float = 0.02
    #: The sampled packet-granular slice: organic fetch rate on each
    #: source PoP riding the same (fluid-pressured) trunks.
    organic_rate: float = 1.0
    riptide: RiptideConfig = field(
        default_factory=lambda: RiptideConfig(
            granularity="prefix", prefix_length=16, update_interval=2.0
        )
    )
    cluster: ClusterConfig = field(
        default_factory=lambda: ClusterConfig(
            tcp=TcpConfig(default_initrwnd=300, slow_start_after_idle=False)
        )
    )


class HybridScaleResult:
    """What the 34-PoP hybrid run sustained."""

    __slots__ = (
        "pops", "populations", "flows_min", "flows_mean", "flows_max", "fluid_steps", "mean_cwnd",
        "offered_gbps", "probes_completed", "learned_routes", "events_processed", "wall_seconds",
    )

    def __init__(
        self,
        pops: int,
        populations: int,
        flows_min: float,
        flows_mean: float,
        flows_max: float,
        fluid_steps: int,
        mean_cwnd: float,
        offered_gbps: float,
        probes_completed: int,
        learned_routes: int,
        events_processed: int,
        wall_seconds: float,
    ) -> None:
        self.pops = pops
        self.populations = populations
        #: Open fluid flows observed at each probe window (min/mean/max).
        self.flows_min = flows_min
        self.flows_mean = flows_mean
        self.flows_max = flows_max
        self.fluid_steps = fluid_steps
        self.mean_cwnd = mean_cwnd
        self.offered_gbps = offered_gbps
        self.probes_completed = probes_completed
        self.learned_routes = learned_routes
        self.events_processed = events_processed
        self.wall_seconds = wall_seconds

    @property
    def sustained_million_flows(self) -> bool:
        """Did every measurement window hold >= 10^6 open flows?"""
        return self.flows_min >= 1_000_000

    def report(self) -> str:
        rows = [
            ("PoPs", f"{self.pops}"),
            ("fluid populations", f"{self.populations:,}"),
            ("open flows per window (min)", f"{self.flows_min:,.0f}"),
            ("open flows per window (mean)", f"{self.flows_mean:,.0f}"),
            ("open flows per window (max)", f"{self.flows_max:,.0f}"),
            ("fluid steps", f"{self.fluid_steps:,}"),
            ("mean background cwnd", f"{self.mean_cwnd:.1f} segments"),
            ("background offered load", f"{self.offered_gbps:.1f} Gbps"),
            ("probes completed", f"{self.probes_completed:,}"),
            ("learned routes", f"{self.learned_routes:,}"),
            ("kernel events", f"{self.events_processed:,}"),
            ("wall time", f"{self.wall_seconds:.1f}s"),
        ]
        table = format_table(
            ("quantity", "value"),
            rows,
            title="Hybrid scale run: 34-PoP mean-field background",
        )
        verdict = (
            "\n>= 10^6 open flows sustained every window: "
            f"{'yes' if self.sustained_million_flows else 'NO'}"
        )
        return table + verdict


def run_scale(config: HybridScaleConfig | None = None) -> HybridScaleResult:
    """Run the 34-PoP hybrid scenario and measure what it sustained."""
    config = config if config is not None else HybridScaleConfig()
    started = time.perf_counter()  # lint: ignore[DET001] - measures the host, never feeds sim state
    topology = build_paper_topology()
    cluster = CdnCluster(
        topology,
        replace(
            config.cluster,
            seed=config.seed,
            riptide=config.riptide,
            label="hybrid",
        ),
    )
    codes = cluster.pop_codes
    cluster.start_riptide()
    for code in codes:
        cluster.add_fluid_traffic(
            code,
            [c for c in codes if c != code],
            flows_per_destination=config.flows_per_pair,
            growth_segments_per_sec=config.growth_segments_per_sec,
            churn_per_flow_per_sec=config.churn_per_flow_per_sec,
            config=SCALE_FLUID,
        )
    # The sampled packet-granular slice: real flows sharing the trunks.
    workload_config = OrganicWorkloadConfig(
        rate_per_second=config.organic_rate, max_object_bytes=200_000
    )
    for code in config.source_pops:
        cluster.add_organic_workload(
            code, [c for c in codes if c != code], workload_config
        )
    engine = cluster.fluid
    assert engine is not None
    cluster.run(config.warmup)
    fleet = cluster.make_probe_fleet(
        list(config.source_pops),
        interval=config.probe_interval,
        host_indices=[1],
    )
    fleet.start(initial_delay=0.0)
    # Sample the open-flow count once per probe window.
    window_flows: list[float] = []
    windows = max(1, int(config.duration / config.probe_interval))
    for _ in range(windows):
        cluster.run(config.probe_interval)
        window_flows.append(engine.total_flows())
    cluster.sync_flows()
    wall = time.perf_counter() - started  # lint: ignore[DET001] - measures the host, never feeds sim state
    return HybridScaleResult(
        pops=len(codes),
        populations=len(engine.populations),
        flows_min=min(window_flows),
        flows_mean=sum(window_flows) / len(window_flows),
        flows_max=max(window_flows),
        fluid_steps=engine.steps,
        mean_cwnd=engine.mean_window(),
        offered_gbps=engine.total_offered_bps() / 1e9,
        probes_completed=len(fleet.completed_results()),
        learned_routes=sum(
            len(agent.learned_table()) for agent in cluster.all_agents()
        ),
        events_processed=cluster.sim.events_processed,
        wall_seconds=wall,
    )


def run(
    config: HybridScaleConfig | None = None,
    flows_per_pair: float | None = None,
    warmup: float | None = None,
    duration: float | None = None,
    seed: int | None = None,
) -> HybridScaleResult:
    """Registry entry point: the 34-PoP scale scenario.

    Keyword overrides exist for the CLI fast path (a reduced smoke run
    that keeps the full topology but shrinks flows and duration).
    """
    config = config if config is not None else HybridScaleConfig()
    overrides: dict[str, object] = {}
    if flows_per_pair is not None:
        overrides["flows_per_pair"] = flows_per_pair
    if warmup is not None:
        overrides["warmup"] = warmup
    if duration is not None:
        overrides["duration"] = duration
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        config = replace(config, **overrides)
    return run_scale(config)
