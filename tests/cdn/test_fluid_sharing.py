"""Cohorts with equal step keys share one step, and the result is exact.

``FluidTraffic._step`` steps a cohort only when no cohort stepped
earlier in the same tick had an equal ``FluidPopulation.step_key``;
otherwise it copies that cohort's post-step state.  These tests run the
engine beside a reference engine in which every cohort's key is the
cohort itself, so every cohort steps, and compare every cohort's full
state and stored ``offered`` load after every tick:

* on a six-PoP hybrid cluster (Riptide on, an organic packet slice on
  one PoP) whose twin cohorts diverge mid-run: a loss override on one
  direction of a trunk, a route on one host only;
* on a two-PoP cluster whose two cohorts are twins, with one field the
  step reads perturbed on one twin: that twin must compute its own step.
"""

from __future__ import annotations

import pytest

from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.cdn.topology import Topology, build_paper_topology
from repro.cdn.workload import OrganicWorkloadConfig
from repro.core.config import RiptideConfig
from repro.net.loss import BernoulliLoss
from repro.sim.fluid import MAX_WINDOW, CwndDistribution, FluidConfig, FluidPopulation
from repro.tcp.constants import TcpConfig

CADENCE = 0.5
FLUID = FluidConfig(cadence=CADENCE, bin_width=4)


def build(pops, riptide=False, organic=False):
    full = build_paper_topology()
    cluster = CdnCluster(
        Topology(pops=tuple(pop for pop in full.pops if pop.code in pops)),
        ClusterConfig(
            seed=42,
            tcp=TcpConfig(default_initrwnd=300, slow_start_after_idle=False),
            riptide=RiptideConfig(granularity="prefix", update_interval=2.0),
        ),
    )
    if riptide:
        cluster.start_riptide()
    for code in pops:
        cluster.add_fluid_traffic(
            code,
            [other for other in pops if other != code],
            flows_per_destination=900.0,
            growth_segments_per_sec=2.0,
            churn_per_flow_per_sec=0.02,
            config=FLUID,
        )
    if organic:
        cluster.add_organic_workload(
            pops[0],
            list(pops[1:]),
            OrganicWorkloadConfig(rate_per_second=1.0, max_object_bytes=200_000),
        )
    return cluster


def state(population):
    """Everything a step writes, plus the load pass 1 reads back."""
    dist = population.distribution
    return (
        list(dist._bin_mass),
        dist._lo_bin,
        dist._hi_bin,
        dist.flows,
        population.segments_sent_total,
        population.segments_retx_total,
        population.bytes_acked_total,
        population.steps,
        population.offered,
    )


def trunk(cluster, source, dest):
    zone_of = cluster.network.zone_of
    return cluster.network.link_from(
        zone_of(cluster.server_address(source)), zone_of(cluster.server_address(dest))
    )


class Lockstep:
    """A sharing cluster and a reference cluster advanced side by side."""

    def __init__(self, monkeypatch, make):
        self.monkeypatch = monkeypatch
        self.shared, self.reference = make(), make()
        self.computed: list[FluidPopulation] = []
        original = FluidPopulation.step

        def counted_step(population, dt, loss_rate, entry_window):
            self.computed.append(population)
            original(population, dt, loss_rate, entry_window)

        monkeypatch.setattr(FluidPopulation, "step", counted_step)

    def cohorts(self, cluster):
        return cluster.fluid.populations

    def both(self, change):
        change(self.shared)
        change(self.reference)

    def tick(self):
        """One cadence on both clusters; returns the sharing side's
        computed cohorts.  Every cohort's state must match."""
        self.computed.clear()
        self.shared.run(CADENCE)
        computed = list(self.computed)
        with self.monkeypatch.context() as patch:
            patch.setattr(
                FluidPopulation, "step_key", lambda population, *inputs: population
            )
            self.reference.run(CADENCE)
        for mine, theirs in zip(self.cohorts(self.shared), self.cohorts(self.reference)):
            assert state(mine) == state(theirs), mine.name
        return computed


def test_shared_steps_match_an_engine_that_steps_every_cohort(monkeypatch):
    pops = ("LHR", "JFK", "NRT", "SYD", "FRA", "GRU")
    bed = Lockstep(monkeypatch, lambda: build(pops, riptide=True, organic=True))
    cohorts = bed.cohorts(bed.shared)
    by_name = {population.name: population for population in cohorts}

    def name(source, dest):
        return f"{bed.shared.hosts(source)[0].name}->{bed.shared.server_address(dest)}"

    computed = total = 0
    for tick in range(24):
        if tick == 8:
            bed.both(lambda c: trunk(c, "JFK", "NRT").set_loss_override(BernoulliLoss(0.02)))
        if tick == 12:
            bed.both(
                lambda c: c.hosts("SYD")[0].ip.route_replace(
                    c.server_address("FRA"), initcwnd=60
                )
            )
        stepped = bed.tick()
        computed += len(stepped)
        total += len(cohorts)
        if tick > 12:
            for source, dest in (("JFK", "NRT"), ("SYD", "FRA")):
                assert by_name[name(source, dest)] in stepped
    # Sharing happened, and not everywhere: the loss override and the
    # one-host route each split a pair of twins.
    assert 0 < computed < total
    for source, dest in (("JFK", "NRT"), ("SYD", "FRA")):
        there, back = by_name[name(source, dest)], by_name[name(dest, source)]
        assert state(there) != state(back)


def regeometry(population):
    """The same bins, range and flows in a histogram one bin shorter."""
    old = population.distribution
    assert old._hi_bin < old.nbins - 1
    new = CwndDistribution(MAX_WINDOW - old.bin_width, old.bin_width)
    new._bin_mass[:] = old._bin_mass[: new.nbins]
    new._lo_bin, new._hi_bin, new.flows = old._lo_bin, old._hi_bin, old.flows
    population.distribution = new


def nudge(field, amount):
    def change(population):
        setattr(population, field, getattr(population, field) + amount)

    return change


def nudge_distribution(field, amount):
    def change(population):
        dist = population.distribution
        setattr(dist, field, getattr(dist, field) + amount)

    return change


def nudge_lowest_bin(population):
    dist = population.distribution
    dist._bin_mass[dist._lo_bin] += 1e-6


#: One perturbation per field the step reads, applied to the second of
#: two twin cohorts (JFK -> LHR); ``None`` marks a change to the cluster.
PERTURBATIONS = {
    "rtt": nudge("rtt", 1e-6),
    "target_flows": nudge("target_flows", 1.0),
    "growth": nudge("growth_segments_per_sec", 0.5),
    "send_cap": lambda population: setattr(
        population, "send_segments_per_flow_per_sec", 50.0
    ),
    "churn": nudge("churn_per_flow_per_sec", 0.01),
    "mss": nudge("mss", -100),
    "bin_geometry": regeometry,
    "loss": None,
    "entry_window": None,
    "bin_mass": nudge_lowest_bin,
    "lo": nudge_distribution("_lo_bin", -1),
    "hi": nudge_distribution("_hi_bin", 1),
    "flows": nudge_distribution("flows", 1e-6),
    "segments_sent_total": nudge("segments_sent_total", 1.0),
    "segments_retx_total": nudge("segments_retx_total", 1.0),
    "bytes_acked_total": nudge("bytes_acked_total", 1.0),
    "steps": nudge("steps", 1),
}


def perturb(field, cluster):
    if field == "loss":
        trunk(cluster, "JFK", "LHR").set_loss_override(BernoulliLoss(0.02))
    elif field == "entry_window":
        cluster.hosts("JFK")[0].ip.route_replace(cluster.server_address("LHR"), initcwnd=60)
    else:
        PERTURBATIONS[field](cluster.fluid.populations[1])


@pytest.mark.parametrize("field", list(PERTURBATIONS))
def test_perturbing_one_field_on_one_twin_makes_it_step(monkeypatch, field):
    bed = Lockstep(monkeypatch, lambda: build(("LHR", "JFK")))
    first, second = bed.cohorts(bed.shared)
    for _ in range(5):
        assert bed.tick() == [first]
    assert state(first) == state(second)
    bed.both(lambda cluster: perturb(field, cluster))
    assert bed.tick() == [first, second]


def test_step_key_holds_the_step_length():
    """``dt`` is one per tick inside an engine; direct callers vary it."""
    population = FluidPopulation("p", rtt=0.1, target_flows=10.0, entry_window=10)
    assert population.step_key(0.5, 0.0, 10) == population.step_key(0.5, 0.0, 10)
    assert population.step_key(0.5, 0.0, 10) != population.step_key(0.25, 0.0, 10)
