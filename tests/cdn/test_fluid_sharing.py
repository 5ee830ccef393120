"""Cohorts with one state share one step, and the result is exact.

``FluidTraffic._step`` steps a cohort only when no cohort stepped
earlier in the same tick had the same ``(state id, loss rate, entry
bin)``; otherwise it copies that cohort's post-step state and id.  These
tests run the engine beside a reference engine whose cohorts never share
an id (none is interned, so each keeps the fresh id it was built with),
hold that every reference cohort really steps every tick, and compare
every cohort's full state and stored ``offered`` load after every tick:

* on a six-PoP hybrid cluster (Riptide on, an organic packet slice on
  one PoP) whose twin cohorts diverge mid-run: a loss override on one
  direction of a trunk, a route on one host only;
* on a two-PoP cluster whose two cohorts are twins, with one field the
  step reads perturbed on one twin.  A change through an API the
  cluster offers must make that twin compute its own step; a field no
  API writes may be written only in ``repro/sim/fluid.py``, where every
  write mints or copies a state id, and lint rule SIM001 flags the same
  write anywhere else in ``src/``;
* on the same two twins with entry windows that differ inside one
  histogram bin: they keep sharing.
"""

from __future__ import annotations

import pytest

from repro.analysis.lint.engine import run_lint
from repro.cdn.cluster import CdnCluster, ClusterConfig
from repro.cdn.topology import Topology, build_paper_topology
from repro.cdn.workload import OrganicWorkloadConfig
from repro.core.config import RiptideConfig
from repro.net.loss import BernoulliLoss
from repro.sim.fluid import FluidConfig, FluidPopulation
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
    """Everything a step writes: the state, the load pass 1 reads back
    and the window total the gauges read."""
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
        population.window_total,
    )


def trunk(cluster, source, dest):
    zone_of = cluster.network.zone_of
    return cluster.network.link_from(
        zone_of(cluster.server_address(source)), zone_of(cluster.server_address(dest))
    )


class Lockstep:
    """A sharing cluster and a reference cluster advanced side by side."""

    def __init__(self, monkeypatch, make):
        self.shared = make()
        with monkeypatch.context() as patch:
            # Each reference cohort keeps the fresh id it was built with,
            # and a computed step mints another: no two ever share one.
            patch.setattr(FluidPopulation, "intern_state", lambda population, ids: None)
            self.reference = make()
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
        computed cohorts.  Every reference cohort must have stepped, and
        every cohort's state must match."""
        self.computed.clear()
        self.shared.run(CADENCE)
        computed = list(self.computed)
        self.computed.clear()
        self.reference.run(CADENCE)
        assert self.computed == self.cohorts(self.reference)
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


def raise_loss(cluster):
    trunk(cluster, "JFK", "LHR").set_loss_override(BernoulliLoss(0.02))


def route_entry_window(initcwnd):
    def change(cluster):
        cluster.hosts("JFK")[0].ip.route_replace(
            cluster.server_address("LHR"), initcwnd=initcwnd
        )

    return change


#: One perturbation per field the step reads, aimed at the second of two
#: twin cohorts (JFK -> LHR).  A function is a change through an API the
#: cluster offers, applied to both clusters: the twin must step.  A
#: string is a raw write to a field no API writes, with ``population``
#: the twin: SIM001 must flag it outside ``repro/sim/fluid.py``.
PERTURBATIONS = {
    "rtt": "population.rtt += 1e-6",
    "target_flows": "population.target_flows += 1.0",
    "growth": "population.growth_segments_per_sec += 0.5",
    "send_cap": "population.send_segments_per_flow_per_sec = 50.0",
    "churn": "population.churn_per_flow_per_sec += 0.01",
    "mss": "population.mss -= 100",
    "bin_geometry": "population.distribution = CwndDistribution(MAX_WINDOW - 4, 4)",
    "loss": raise_loss,
    # 10 -> 60 segments: bin 2 -> bin 14 at bin width 4.
    "entry_window": route_entry_window(60),
    "bin_mass": "population.distribution._bin_mass[lo] += 1e-6",
    "lo": "population.distribution._lo_bin -= 1",
    "hi": "population.distribution._hi_bin += 1",
    "flows": "population.distribution.flows += 1e-6",
    "segments_sent_total": "population.segments_sent_total += 1.0",
    "segments_retx_total": "population.segments_retx_total += 1.0",
    "bytes_acked_total": "population.bytes_acked_total += 1.0",
    "steps": "population.steps += 1",
}


def sim001_findings(tmp_path, write):
    """SIM001's findings for ``write`` in a cdn-side module of ``src/``."""
    module = tmp_path / "repro" / "cdn" / "perturb.py"
    module.parent.mkdir(parents=True)
    module.write_text(f"def perturb(population, lo):\n    {write}\n")
    result = run_lint([str(module)], select=["SIM001"])
    return [(finding.code, finding.line) for finding in result.findings]


@pytest.mark.parametrize("field", list(PERTURBATIONS))
def test_perturbing_one_field_on_one_twin_makes_it_step(monkeypatch, tmp_path, field):
    change = PERTURBATIONS[field]
    if isinstance(change, str):
        assert sim001_findings(tmp_path, change) == [("SIM001", 2)]
        return
    bed = Lockstep(monkeypatch, lambda: build(("LHR", "JFK")))
    first, second = bed.cohorts(bed.shared)
    for _ in range(5):
        assert bed.tick() == [first]
    assert state(first) == state(second)
    bed.both(change)
    assert bed.tick() == [first, second]


def entry_windows(cluster, source):
    host = cluster.hosts(source)[0]
    return {row.initial_cwnd for row in host.ss.tcp_info()}


def test_twins_whose_entry_windows_share_a_bin_keep_sharing(monkeypatch):
    """10 and 12 segments are one bin at bin width 4; 13 is the next."""
    bed = Lockstep(monkeypatch, lambda: build(("LHR", "JFK")))
    first, second = bed.cohorts(bed.shared)
    for _ in range(3):
        assert bed.tick() == [first]
    bed.both(route_entry_window(12))
    for _ in range(3):
        assert bed.tick() == [first]
    assert entry_windows(bed.shared, "LHR") == {10}
    assert entry_windows(bed.shared, "JFK") == {12}
    assert state(first) == state(second)
    bed.both(route_entry_window(13))
    assert bed.tick() == [first, second]


def test_step_key_holds_parameters_and_state_not_inputs():
    """Cohorts built alike share a state id until one steps alone."""
    ids: dict[tuple[object, ...], int] = {}

    def cohort(entry_window=10, **kwargs):
        population = FluidPopulation(
            "p", rtt=0.1, target_flows=10.0, entry_window=entry_window, **kwargs
        )
        population.intern_state(ids)
        return population

    first = cohort()
    # Name, age and direction are not read by the step.
    twin = cohort(created_at=3.0, is_client=True)
    assert twin.state_id == first.state_id
    assert first.step_key() == twin.step_key()
    assert cohort(entry_window=20).state_id != first.state_id
    assert cohort(churn_per_flow_per_sec=0.1).state_id != first.state_id
    first.step(0.5, 0.0, 10)
    assert first.state_id != twin.state_id
    twin.adopt_step(first)
    assert twin.state_id == first.state_id
    assert twin.step_key() == first.step_key()
