"""A ceiling on the Python frames the background plane costs.

Two loops carry a hybrid run's 10^6 background flows without touching a
packet: ``FluidTraffic._step`` advances every cohort's cwnd histogram,
and ``RiptideAgent._tick`` polls ``ss`` over the rows synthesized from
those cohorts, groups them by destination and decides a window per
group.  On the 34-PoP scale run they are two thirds of the wall, and in
CPython their price is, to first order, the Python frames entered per
item: per observed ``ss`` row inside ``_tick``, per cohort step inside
``_step``.  This test counts ``call`` events under ``sys.setprofile``
inside each of the two on a small fixed hybrid cluster and holds both
ratios under a recorded ceiling — the sibling of
``tests/tcp/test_hot_path_frames.py`` for the half of the simulator that
file never enters.  A generator expression costs a frame per item, so a
``sum(... for ...)`` over bins or populations shows up here at once.

The row, tick and cohort-step counts are pinned beside the ratios: a
frame saving must never be a row or a step dropped in disguise.  So is
the number of cohort steps the engine *computed*: a cohort whose state
id, loss rate and entry bin match one already stepped in the tick copies
that result instead (``tests/cdn/test_fluid_sharing.py`` holds the copy
exact).

Re-measure (prints the figures for this cluster and for the 34-PoP
``run_scale`` at seeds 42 and 7, as the benchmark's ``fluid_hybrid``
runs it, with computed and total cohort steps)::

    PYTHONPATH=src python tests/cdn/test_background_plane_frames.py

Measured on CPython 3.11, frames per observed row / per cohort step:

=========================  ==============  ==============  ==============
                           here, disabled  here, capture   ``run_scale``
=========================  ==============  ==============  ==============
five-pass cohort step,     15.89 / 31.50   16.18 / 41.86   14.37 / 40.81
one group lookup per row
two-sweep cohort step,     11.51 / 18.07   11.79 / 28.43   10.00 / 28.01
one group lookup per run
the engine's four float    11.51 / 16.07   11.79 / 22.30   10.00 / 22.01
sums as explicit loops
one step call per cohort,  10.13 / 11.94   10.36 / 13.04    8.76 / 12.70
twins share one step
memo on state id, entry     9.57 /  8.24    9.80 /  8.34    8.12 /  7.76
bin; entry windows cached
groups hold the ss rows;    6.78 /  8.24    7.01 /  8.34    5.32 /  7.76
no frame per row or entry
=========================  ==============  ==============  ==============

The third row took the per-link load sum and the three gauge totals of
``cdn/fluidtraffic.py`` from generator expressions (a frame per item)
to left-to-right loops, which also pins their bits across interpreters
(3.12's ``sum`` is compensated).  Before the fourth row the parent read
10.13 / 17.07, 10.36 / 23.30 and 8.76 / 23.01: the agent side had lost
frames since, the engine side had gained one per cohort step.  The
fourth row computes a step once per distinct step key and copies it to the
matching cohorts, and the link loads and gauges read the load the step
stored instead of re-deriving it: 414 of the 720 steps here, and 24,182
of 44,880 in ``run_scale`` at seed 42 (24,151 at seed 7), are computed.

The fifth row keys that memo on ``(state id, loss rate, entry bin)``
instead of a tuple of 20 or more floats built per cohort, folds the
refill's send rate and window total into one loop inside the step
(the gauges read both as the step stored them),
re-resolves a cohort's entry window only when its host's routing changed
(no ``initcwnd_for`` → ``initcwnd_with_source`` → ``lookup`` per cohort
per tick or per poll), and samples windows and ages once per distinct
state.  Computed steps fall to 406 of 720 here, and to 24,063 of 44,880
at seed 42 (24,047 at seed 7): the step reads the entry window only
through its histogram bin, so twins whose routes differ inside one bin
(bin width 4) now share.  The ceilings keep the fourth row's margins
over the new figures.

The sixth row groups the ``SocketStats`` rows themselves instead of an
``Observation`` copy of each (the agent checks the three values inline),
averages the cwnds with ``sum(map(attrgetter("cwnd"), ...))`` instead of
a generator behind a helper call, sorts learned entries by an
``attrgetter`` key, tests TTL expiry inline and reads a cohort's flow
count once, from its distribution.  Before it the parent read
9.52 / 8.24, 9.76 / 8.34 and 8.05 / 7.76; at seed 42 the row saves, in
``run_scale``, 93,346 copies, 105,179 generator resumes, 11,833 helper
calls, 10,632 sort keys, 11,833 expiry calls and 22,440 reads of the
``flows`` property.  The per-row ceilings keep the
margins they had over the parent's figures (2.78 and 2.84 frames).
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from contextlib import AbstractContextManager
from dataclasses import dataclass
from types import CodeType, FrameType
from typing import Any

import pytest

from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.cdn.fluidtraffic import FluidTraffic
from repro.cdn.topology import Topology, build_paper_topology
from repro.cdn.workload import OrganicWorkloadConfig
from repro.core.agent import RiptideAgent
from repro.core.config import RiptideConfig
from repro.obs.instrument import capture, disabled
from repro.sim.fluid import FluidConfig, FluidPopulation
from repro.tcp.constants import TcpConfig

POPS = ("LHR", "JFK", "NRT", "SYD", "FRA", "GRU")
SIMULATED_SECONDS = 12.0
#: What the run below amounts to, whatever it costs: 12 agents polling
#: every 2 s, 30 cohorts stepped every 0.5 s.
AGENT_TICKS = 72
OBSERVED_ROWS = 1_494
COHORT_STEPS = 720
#: Of those, the steps computed; the rest are copies of a twin's step.
COMPUTED_COHORT_STEPS = 406

#: (frames per observed row, frames per cohort step) by instrumentation
#: mode; see the table above.  The margin is for interpreter versions
#: (3.12 inlines comprehensions), not for new helper hops.
CEILINGS = {"disabled": (9.6, 10.3), "capture": (9.9, 10.8)}


@dataclass
class Frames:
    """``call`` events counted inside the two loops, and what they processed."""

    in_tick: int
    in_step: int
    ticks: int
    rows: int
    cohort_steps: int
    computed_steps: int

    @property
    def per_row(self) -> float:
        return self.in_tick / self.rows

    @property
    def per_cohort_step(self) -> float:
        return self.in_step / self.cohort_steps


class RegionCounter:
    """Counts Python frames entered while a frame of a watched code object
    is open, and the calls of the ``counted`` code object."""

    def __init__(self, *regions: CodeType, counted: CodeType) -> None:
        self.frames = dict.fromkeys(regions, 0)
        self.counted = counted
        self.calls = 0
        self._region: CodeType | None = None
        self._root: FrameType | None = None

    def __call__(self, frame: FrameType, event: str, arg: object) -> None:
        if event == "call":
            if frame.f_code is self.counted:
                self.calls += 1
            if self._region is None and frame.f_code in self.frames:
                self._region, self._root = frame.f_code, frame
            if self._region is not None:
                self.frames[self._region] += 1
        elif event == "return" and frame is self._root:
            self._region = self._root = None


def small_hybrid_cluster() -> CdnCluster:
    """``run_scale``'s shape on six PoPs: /16 routes, bin width 4, churn."""
    full = build_paper_topology()
    cluster = CdnCluster(
        Topology(pops=tuple(pop for pop in full.pops if pop.code in POPS)),
        ClusterConfig(
            seed=42,
            tcp=TcpConfig(default_initrwnd=300, slow_start_after_idle=False),
            riptide=RiptideConfig(
                granularity="prefix", update_interval=2.0
            ),
        ),
    )
    cluster.start_riptide()
    for code in POPS:
        cluster.add_fluid_traffic(
            code,
            [other for other in POPS if other != code],
            flows_per_destination=900.0,
            growth_segments_per_sec=2.0,
            churn_per_flow_per_sec=0.02,
            config=FluidConfig(cadence=0.5, bin_width=4),
        )
    cluster.add_organic_workload(
        "LHR",
        [other for other in POPS if other != "LHR"],
        OrganicWorkloadConfig(rate_per_second=1.0, max_object_bytes=200_000),
    )
    return cluster


def count_frames(run: Callable[[], tuple[int, int, int]]) -> Frames:
    """Run ``run`` (returns ticks, rows, cohort steps) under the counter."""
    tick, step = RiptideAgent._tick.__code__, FluidTraffic._step.__code__
    counter = RegionCounter(tick, step, counted=FluidPopulation.step.__code__)
    previous = sys.getprofile()
    sys.setprofile(counter)
    try:
        ticks, rows, cohort_steps = run()
    finally:
        sys.setprofile(previous)
    return Frames(
        counter.frames[tick], counter.frames[step], ticks, rows, cohort_steps,
        counter.calls,
    )


def run_small_cluster() -> tuple[int, int, int]:
    cluster = small_hybrid_cluster()
    cluster.run(SIMULATED_SECONDS)
    agents = cluster.all_agents()
    engine = cluster.fluid
    assert engine is not None
    return (
        sum(agent.stats.polls for agent in agents),
        sum(agent.stats.connections_observed for agent in agents),
        sum(population.steps for population in engine.populations),
    )


def run_scale_at(seed: int) -> tuple[int, int, int]:
    """What one repeat of the benchmark's ``fluid_hybrid`` runs."""
    from repro.experiments import hybrid

    with capture() as obs:
        result = hybrid.run_scale(hybrid.HybridScaleConfig(seed=seed, duration=15.0))
    return (
        obs.metrics.total("riptide_polls"),
        obs.metrics.total("riptide_connections_observed"),
        result.populations * result.fluid_steps,
    )


@pytest.mark.parametrize("mode", [disabled, capture], ids=lambda mode: mode.__name__)
def test_frames_per_row_and_per_cohort_step(
    mode: Callable[[], AbstractContextManager[Any]],
) -> None:
    with mode():
        frames = count_frames(run_small_cluster)
    assert (
        frames.ticks, frames.rows, frames.cohort_steps, frames.computed_steps
    ) == (AGENT_TICKS, OBSERVED_ROWS, COHORT_STEPS, COMPUTED_COHORT_STEPS)
    per_row, per_cohort_step = CEILINGS[mode.__name__]
    assert frames.per_row <= per_row
    assert frames.per_cohort_step <= per_cohort_step


def _describe(label: str, frames: Frames) -> str:
    return (
        f"{label}: {frames.per_row:.2f} frames/row, "
        f"{frames.per_cohort_step:.2f} frames/cohort step ({frames.ticks} ticks, "
        f"{frames.rows} rows, {frames.computed_steps} of {frames.cohort_steps} "
        "cohort steps computed)"
    )


if __name__ == "__main__":
    for context in (disabled, capture):
        with context():
            print(_describe(context.__name__, count_frames(run_small_cluster)))
    for seed in (42, 7):
        frames = count_frames(lambda seed=seed: run_scale_at(seed))
        print(_describe(f"run_scale seed {seed} (capture)", frames))
