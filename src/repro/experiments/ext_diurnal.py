"""Extension experiment: Riptide across traffic valleys (diurnal load).

Not a paper figure — it quantifies a consequence the paper states in its
Discussion: "if a server is idle ... Riptide effectiveness would be
minimal", because the TTL removes learned routes once connections drain.
An on/off workload with valleys longer than the TTL makes the first
fetches of each peak start cold from the kernel default, while fetches
later in the peak ride freshly relearned windows.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.cdn.diurnal import OnOffProfile
from repro.cdn.filesizes import FileSizeDistribution
from repro.cdn.workload import OrganicWorkload, OrganicWorkloadConfig
from repro.core.config import RiptideConfig
from repro.experiments.scenarios import sub_topology

FETCH_BYTES = 100_000

#: Riptide's TTL, and the on/off load: each valley outlasts the TTL, so
#: it expires every learned entry.
TTL = 8.0
VALLEY = 15.0
PEAK = 25.0
CYCLES = 4


class DiurnalResult:
    """Cold-fetch times right after each valley vs later in each peak."""

    __slots__ = ("post_valley_times", "mid_peak_times")

    def __init__(self, post_valley_times: list[float], mid_peak_times: list[float]) -> None:
        self.post_valley_times = post_valley_times
        self.mid_peak_times = mid_peak_times

    @property
    def post_valley_median(self) -> float:
        return sorted(self.post_valley_times)[len(self.post_valley_times) // 2]

    @property
    def mid_peak_median(self) -> float:
        return sorted(self.mid_peak_times)[len(self.mid_peak_times) // 2]

    @property
    def relearning_penalty(self) -> float:
        """How much slower the first post-valley fetch is (fractional)."""
        if self.mid_peak_median == 0:
            return 0.0
        return self.post_valley_median / self.mid_peak_median - 1.0

    def report(self) -> str:
        rows = [
            ("post-valley (entries expired)",
             f"{self.post_valley_median * 1000:.0f} ms",
             str(len(self.post_valley_times))),
            ("mid-peak (entries live)",
             f"{self.mid_peak_median * 1000:.0f} ms",
             str(len(self.mid_peak_times))),
        ]
        table = format_table(
            ("fetch timing", "median", "n"),
            rows,
            title=(
                f"Extension: {FETCH_BYTES // 1000} KB cold fetches under "
                f"on/off load (valley {VALLEY:.0f}s > ttl {TTL:.0f}s)"
            ),
        )
        return table + (
            f"\nrelearning penalty after each valley: "
            f"{self.relearning_penalty:+.0%}"
        )


def run() -> DiurnalResult:
    topology = sub_topology(("LHR", "JFK"))
    riptide_config = RiptideConfig(
        granularity="prefix", ttl=TTL, update_interval=0.5
    )
    cluster = CdnCluster(topology, ClusterConfig(riptide=riptide_config))
    # On/off organic traffic between the PoPs drives learning during
    # peaks; valleys drain connections so the TTL can lapse.
    profile = OnOffProfile(on_duration=PEAK, off_duration=VALLEY)
    for source, destination in (("LHR", "JFK"), ("JFK", "LHR")):
        deployment_client = cluster.client(source, 0)
        workload = OrganicWorkload(
            sim=cluster.sim,
            client=deployment_client,
            destinations=[cluster.server_address(destination)],
            sizes=FileSizeDistribution.production_cdn(),
            rng=cluster.streams.stream(f"diurnal:{source}"),
            config=OrganicWorkloadConfig(rate_per_second=4.0, close_probability=1.0),
            rate_profile=profile,
        )
        workload.start()
    cluster.start_riptide()

    probe_client = cluster.client("LHR", 1)
    target = cluster.server_address("JFK")
    post_valley_times: list[float] = []
    mid_peak_times: list[float] = []
    cycle = PEAK + VALLEY

    def fetch_into(bucket: list[float]) -> None:
        result = probe_client.fetch(target, FETCH_BYTES)
        cluster.run(5.0)
        probe_client.close_idle_connections()
        cluster.run(0.5)
        if result.completed:
            bucket.append(result.total_time)

    for index in range(CYCLES):
        cycle_start = index * cycle
        # Just after the valley ends (start of the next peak): run up to
        # the boundary, then fetch immediately.
        cluster.run(max(0.0, cycle_start + 0.5 - cluster.sim.now))
        if index > 0:
            fetch_into(post_valley_times)
        # Mid-peak: entries are warm from the organic traffic.
        cluster.run(max(0.0, cycle_start + PEAK * 0.8 - cluster.sim.now))
        fetch_into(mid_peak_times)
        cluster.run(max(0.0, cycle_start + cycle - cluster.sim.now))

    return DiurnalResult(post_valley_times=post_valley_times, mid_peak_times=mid_peak_times)
