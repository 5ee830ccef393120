"""Figure 11: learned windows at a probe-only PoP vs an organic PoP.

Paper anchors: "the PoP with organic traffic sees much higher windows,
achieving a congestion window of 100 for over 44% of connections.  On
the other hand, the probe-only traffic is below a window of 100 in 99%
of cases, and has a median window of 75 segments."  Riptide's learned
value can only grow as far as the traffic that teaches it.
"""

from __future__ import annotations

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

WARMUP = 10.0
ORGANIC_RATE = 6.0
C_MAX = 100
UPDATE_INTERVAL = 0.5
#: A learned route outlives neither a probe round's gap nor a probe
#: connection's idle close: ``TTL < PROBE_INTERVAL`` is the paper's
#: expiry-between-probe-rounds regime.
TTL = 6.0
PROBE_INTERVAL = 12.0
IDLE_CLOSE_DELAY = 4.0


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


def run(duration: float = 90.0) -> Fig11Result:
    """Run the two-profile comparison.

    The paper's probes are hourly while Riptide's TTL is 90 s, so on a
    probe-only PoP every learned route *expires between rounds* and each
    probe starts from the kernel default — capping its windows at what a
    single transfer can grow.  We preserve that regime under time
    compression by keeping ``TTL`` below ``PROBE_INTERVAL`` (while the
    organic PoP's continuous traffic keeps its entries alive).
    """
    topology = sub_topology(DEFAULT_CODES)
    riptide_config = RiptideConfig(
        granularity="prefix",
        c_max=C_MAX,
        ttl=TTL,
        update_interval=UPDATE_INTERVAL,
    )
    cluster = CdnCluster(topology, ClusterConfig(riptide=riptide_config))
    codes = cluster.pop_codes
    # Organic traffic everywhere except the probe-only PoP (and nobody
    # fetches *from* it either, so its links see only probe traffic).
    add_organic_mesh(
        cluster,
        OrganicWorkloadConfig(rate_per_second=ORGANIC_RATE),
        codes=[c for c in codes if c != PROBE_ONLY_POP],
    )
    started = cluster.start_riptide()
    cluster.run(WARMUP)
    # Every PoP probes every other (Section IV-A), so the probe-only PoP
    # both sends probes and *serves* probe responses — the only traffic
    # that can teach its peers' (and its own) Riptide agents about it.
    fleet = cluster.make_probe_fleet(
        codes, interval=PROBE_INTERVAL, host_indices=[1], close_before_round=True
    )
    # Probe connections idle-close soon after each round, so on the
    # probe-only PoP the learned routes expire before the next round.
    fleet.idle_close_delay = IDLE_CLOSE_DELAY
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
        c_max=C_MAX,
    )
