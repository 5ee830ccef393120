"""Figure 11: learned windows at a probe-only PoP vs an organic PoP.

Paper anchors: "the PoP with organic traffic sees much higher windows,
achieving a congestion window of 100 for over 44% of connections.  On
the other hand, the probe-only traffic is below a window of 100 in 99%
of cases, and has a median window of 75 segments."  Riptide's learned
value can only grow as far as the traffic that teaches it.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.tables import format_cdf_rows
from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.cdn.workload import OrganicWorkloadConfig
from repro.core.config import RiptideConfig
from repro.experiments.scenarios import add_organic_mesh, sub_topology

#: Probe-only vantage / organic ("busiest in the network") vantage.
PROBE_ONLY_POP = "ARN"
ORGANIC_POP = "LHR"

DEFAULT_CODES = ("LHR", "ARN", "JFK", "IAD", "NRT", "SYD")


class Fig11Result:
    """Window CDFs observed at the two vantage PoPs."""

    __slots__ = ("probe_only", "organic", "c_max")

    def __init__(self, probe_only: EmpiricalCdf, organic: EmpiricalCdf, c_max: int) -> None:
        self.probe_only = probe_only
        self.organic = organic
        self.c_max = c_max

    @property
    def organic_fraction_at_cmax(self) -> float:
        return 1.0 - self.organic.cdf(self.c_max - 1)

    @property
    def probe_only_fraction_below_cmax(self) -> float:
        return self.probe_only.cdf(self.c_max - 1)

    def report(self) -> str:
        table = format_cdf_rows(
            {"probe-only PoP": self.probe_only, "organic PoP": self.organic},
            levels=(10, 25, 50, 75, 90),
            value_format="{:.0f}",
            title="Figure 11: observed windows by traffic profile (segments)",
        )
        anchors = (
            f"\norganic PoP at c_max={self.c_max}: "
            f"{self.organic_fraction_at_cmax:.0%} of connections (paper: 44%)\n"
            f"probe-only PoP below c_max: "
            f"{self.probe_only_fraction_below_cmax:.0%} (paper: 99%, median 75)"
        )
        return table + anchors


def run(
    topology_codes: tuple[str, ...] = DEFAULT_CODES,
    duration: float = 90.0,
    warmup: float = 10.0,
    probe_interval: float = 12.0,
    organic_rate: float = 6.0,
    c_max: int = 100,
    ttl: float = 6.0,
    update_interval: float = 0.5,
    idle_close_delay: float = 4.0,
    seed: int = 42,
) -> Fig11Result:
    """Run the two-profile comparison.

    The paper's probes are hourly while Riptide's TTL is 90 s, so on a
    probe-only PoP every learned route *expires between rounds* and each
    probe starts from the kernel default — capping its windows at what a
    single transfer can grow.  We preserve that regime under time
    compression by keeping ``ttl`` below ``probe_interval`` (while the
    organic PoP's continuous traffic keeps its entries alive).
    """
    if ttl >= probe_interval:
        raise ValueError(
            "fig11 requires ttl < probe_interval to reproduce the paper's "
            "expiry-between-probe-rounds regime"
        )
    topology = sub_topology(topology_codes)
    riptide_config = RiptideConfig(
        granularity="prefix",
        prefix_length=16,
        c_max=c_max,
        ttl=ttl,
        update_interval=update_interval,
    )
    cluster = CdnCluster(
        topology, replace(ClusterConfig(seed=seed), riptide=riptide_config)
    )
    codes = cluster.pop_codes
    # Organic traffic everywhere except the probe-only PoP (and nobody
    # fetches *from* it either, so its links see only probe traffic).
    add_organic_mesh(
        cluster,
        OrganicWorkloadConfig(rate_per_second=organic_rate),
        codes=[c for c in codes if c != PROBE_ONLY_POP],
    )
    started = cluster.start_riptide()
    cluster.run(warmup)
    # Every PoP probes every other (Section IV-A), so the probe-only PoP
    # both sends probes and *serves* probe responses — the only traffic
    # that can teach its peers' (and its own) Riptide agents about it.
    fleet = cluster.make_probe_fleet(
        codes, interval=probe_interval, host_indices=[1], close_before_round=True
    )
    # Probe connections idle-close soon after each round, so on the
    # probe-only PoP the learned routes expire before the next round.
    fleet.idle_close_delay = idle_close_delay
    fleet.start(initial_delay=0.0)
    probe_sampler = cluster.make_cwnd_sampler(
        interval=1.0,
        created_after=started,
        pop_codes=[PROBE_ONLY_POP],
    )
    organic_sampler = cluster.make_cwnd_sampler(
        interval=1.0,
        created_after=started,
        pop_codes=[ORGANIC_POP],
    )
    probe_sampler.start()
    organic_sampler.start()
    cluster.run(duration)
    return Fig11Result(
        probe_only=EmpiricalCdf(probe_sampler.cwnd_values()),
        organic=EmpiricalCdf(organic_sampler.cwnd_values()),
        c_max=c_max,
    )
