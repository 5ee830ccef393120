"""Figure 10: live congestion windows under different ``c_max`` values.

Methodology (Section IV-B1): sample the windows of connections created
after Riptide started, once a minute, across the deployment; repeat for
``c_max`` in {50, 100, 150, 200, 250} and for a control group without
Riptide.  Paper anchors: the median window under the lowest setting
(c_max = 50) is ~100 % above the control; every line shows a mode at its
own c_max (connections opened at the learned window and never grown);
the knee at 100 motivates the deployed c_max = 100.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.tables import format_cdf_rows
from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.cdn.topology import Topology
from repro.cdn.workload import OrganicWorkloadConfig
from repro.core.config import RiptideConfig
from repro.experiments.scenarios import EVALUATION_POP_CODES, add_organic_mesh, sub_topology
from repro.parallel.executor import run_tasks

PAPER_CMAX_VALUES = (50, 100, 150, 200, 250)

#: Key used for the no-Riptide control series.
CONTROL = 0

#: Simulated seconds between window samples of one arm.
SAMPLE_INTERVAL = 5.0


class Fig10Result:
    """Window CDFs per c_max (key 0 = control)."""

    __slots__ = ("cdfs",)

    def __init__(self, cdfs: dict[int, EmpiricalCdf]) -> None:
        self.cdfs = cdfs

    def median_increase_vs_control(self, c_max: int) -> float:
        """Fractional median window increase over the control group."""
        control_median = self.cdfs[CONTROL].median
        if control_median == 0:
            return 0.0
        return self.cdfs[c_max].median / control_median - 1.0

    def fraction_at_cmax(self, c_max: int) -> float:
        """Mass of the mode at the series' own c_max."""
        cdf = self.cdfs[c_max]
        return 1.0 - cdf.cdf(c_max - 1)

    def report(self) -> str:
        names = {CONTROL: "control"}
        names.update({c: f"c_max={c}" for c in sorted(k for k in self.cdfs if k)})
        table = format_cdf_rows(
            {names[k]: self.cdfs[k] for k in sorted(self.cdfs)},
            levels=(10, 25, 50, 75, 90),
            value_format="{:.0f}",
            title="Figure 10: live congestion windows (segments)",
        )
        lowest = min(k for k in self.cdfs if k)
        anchors = (
            f"\nmedian increase at c_max={lowest} vs control: "
            f"{self.median_increase_vs_control(lowest):.0%} (paper: ~100%)"
        )
        return table + anchors


def run_single(
    c_max: int | None,
    topology: Topology,
    duration: float = 60.0,
    warmup: float = 10.0,
    organic_rate: float = 3.0,
    seed: int = 42,
) -> EmpiricalCdf:
    """One arm of the sweep; ``c_max=None`` runs the control group."""
    riptide_config = RiptideConfig(
        granularity="prefix",
        prefix_length=16,
        c_max=c_max if c_max is not None else 100,
    )
    cluster = CdnCluster(
        topology, replace(ClusterConfig(seed=seed), riptide=riptide_config)
    )
    add_organic_mesh(cluster, OrganicWorkloadConfig(rate_per_second=organic_rate))
    if c_max is not None:
        started = cluster.start_riptide()
    else:
        started = cluster.sim.now
    cluster.run(warmup)
    sampler = cluster.make_cwnd_sampler(
        interval=SAMPLE_INTERVAL, created_after=started
    )
    sampler.start()
    cluster.run(duration)
    return EmpiricalCdf(sampler.cwnd_values())


def run(
    c_max_values: tuple[int, ...] = PAPER_CMAX_VALUES,
    topology_codes: tuple[str, ...] = EVALUATION_POP_CODES,
    duration: float = 60.0,
    warmup: float = 10.0,
    organic_rate: float = 3.0,
    seed: int = 42,
    workers: int = 1,
) -> Fig10Result:
    """Run the control group plus one deployment per ``c_max`` value.

    The deployments are independent simulations sharing a seed, so with
    ``workers`` > 1 they fan out across forked worker processes
    (:mod:`repro.parallel`) and produce byte-identical CDFs to the
    serial sweep, in the same control-first order.
    """
    topology = sub_topology(topology_codes)
    arms: list[int | None] = [None, *c_max_values]

    def make_task(c_max: int | None):
        return lambda: run_single(
            c_max, topology, duration=duration, warmup=warmup,
            organic_rate=organic_rate, seed=seed,
        )

    results = run_tasks(
        [make_task(c_max) for c_max in arms],
        workers=workers,
        labels=["fig10:control" if c is None else f"fig10:c_max={c}" for c in arms],
    )
    cdfs: dict[int, EmpiricalCdf] = {
        (CONTROL if c_max is None else c_max): cdf
        for c_max, cdf in zip(arms, results, strict=True)
    }
    return Fig10Result(cdfs=cdfs)
