"""The experiment registry: id -> (description, runner)."""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any

from repro.experiments import (
    chaos,
    edge_cases,
    ext_advisory,
    ext_diurnal,
    fig02_filesizes,
    fig03_rtt_cdf,
    fig04_theoretical_gain,
    fig05_rtt_distribution,
    fig06_transfer_time_model,
    fig10_cmax_sweep,
    fig11_traffic_profiles,
    fig12_14_probe_times,
    fig15_16_percentile_gain,
    hybrid,
    table2_pops,
    tournament,
)
from repro.experiments.scenarios import ProbeStudyConfig
from repro.records import Frozen


class Experiment(Frozen):
    """One registered reproduction experiment."""

    __slots__ = (
        "experiment_id", "description", "run", "simulation_backed", "supports_workers",
        "fault_scenario", "fast",
    )

    experiment_id: str
    description: str
    run: Callable
    simulation_backed: bool
    #: Whether ``run`` accepts a ``workers=N`` keyword that fans its
    #: independent simulations out across a process pool
    #: (:mod:`repro.parallel`).
    supports_workers: bool
    #: Chaos scenario this experiment pairs with (``repro faults``), when
    #: its simulation runs under an injected fault schedule.
    fault_scenario: str | None
    #: Keyword arguments ``run`` takes for a reduced-scale run
    #: (``--fast``): a smaller topology, fewer samples or a shorter clock.
    fast: Mapping[str, Any]

    def __init__(
        self,
        experiment_id: str,
        description: str,
        run: Callable,
        simulation_backed: bool,
        supports_workers: bool = False,
        fault_scenario: str | None = None,
        fast: Mapping[str, Any] | None = None,
    ) -> None:
        object.__setattr__(self, "experiment_id", experiment_id)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "run", run)
        object.__setattr__(self, "simulation_backed", simulation_backed)
        object.__setattr__(self, "supports_workers", supports_workers)
        object.__setattr__(self, "fault_scenario", fault_scenario)
        object.__setattr__(self, "fast", {} if fast is None else fast)


#: The reduced evaluation footprint: one PoP per RTT bucket from LHR.
_FAST_POP_CODES = ("LHR", "AMS", "JFK", "NRT", "SYD")

_FAST_PROBE_STUDY = {
    "config": ProbeStudyConfig(
        topology_codes=_FAST_POP_CODES, warmup=10.0, duration=30.0
    )
}

#: Each chaos runner pins its own scenario onto the config it is given.
_FAST_CHAOS_STUDY = {
    "config": chaos.ChaosStudyConfig(warmup=8.0, duration=30.0)
}


EXPERIMENTS: dict[str, Experiment] = {
    exp.experiment_id: exp
    for exp in (
        Experiment(
            "fig02",
            "Production CDN file-size distribution (54% exceed IW10)",
            fig02_filesizes.run,
            simulation_backed=False,
            fast={"samples": 20_000},
        ),
        Experiment(
            "fig03",
            "RTTs to complete transfers under IW 10/25/50/100",
            fig03_rtt_cdf.run,
            simulation_backed=False,
            fast={"samples": 20_000},
        ),
        Experiment(
            "fig04",
            "Theoretical RTT reduction vs file size for IW 25/50/100",
            fig04_theoretical_gain.run,
            simulation_backed=False,
            fast={"points": 100},
        ),
        Experiment(
            "fig05",
            "Inter-PoP RTT distribution (median > 125 ms)",
            fig05_rtt_distribution.run,
            simulation_backed=False,
        ),
        Experiment(
            "fig06",
            "Modelled 100 KB transfer time over the RTT distribution",
            fig06_transfer_time_model.run,
            simulation_backed=False,
        ),
        Experiment(
            "table2",
            "PoP census per continent",
            table2_pops.run,
            simulation_backed=False,
        ),
        Experiment(
            "fig10",
            "Live congestion windows for c_max in {50..250} + control",
            fig10_cmax_sweep.run,
            simulation_backed=True,
            supports_workers=True,
            fast={
                "c_max_values": (50, 100, 250),
                "topology_codes": _FAST_POP_CODES,
                "duration": 20.0,
                "warmup": 5.0,
            },
        ),
        Experiment(
            "fig11",
            "Probe-only vs organic-traffic PoP window profiles",
            fig11_traffic_profiles.run,
            simulation_backed=True,
            fast={"duration": 45.0},
        ),
        Experiment(
            "fig12_14",
            "Probe completion-time CDFs by size and RTT bucket",
            fig12_14_probe_times.run,
            simulation_backed=True,
            supports_workers=True,
            fast=_FAST_PROBE_STUDY,
        ),
        Experiment(
            "fig15_16",
            "Fraction of gain by percentile for 50/100 KB probes",
            fig15_16_percentile_gain.run,
            simulation_backed=True,
            supports_workers=True,
            fast=_FAST_PROBE_STUDY,
        ),
        Experiment(
            "edge_cases",
            "Best/worst-case probe times per destination (Section IV-D)",
            edge_cases.run,
            simulation_backed=True,
            supports_workers=True,
            fast=_FAST_PROBE_STUDY,
        ),
        Experiment(
            "hybrid",
            "Mean-field hybrid: 34 PoPs, 10^6 open background flows per window",
            hybrid.run_scale,
            simulation_backed=True,
            # Keep the full 34-PoP topology but shrink the population and
            # clock: the study golden digests this shape to pin the whole
            # fluid path.
            fast={
                "config": hybrid.HybridScaleConfig(
                    flows_per_pair=100.0, warmup=3.0, duration=10.0
                )
            },
        ),
        Experiment(
            "ext_diurnal",
            "Extension: TTL relearning penalty across traffic valleys",
            ext_diurnal.run,
            simulation_backed=True,
        ),
        Experiment(
            "ext_advisory",
            "Extension: conservatism advisories during a load shift",
            ext_advisory.run,
            simulation_backed=True,
        ),
        Experiment(
            "chaos_lossy_agent",
            "Chaos: loss storm + agent crash/ss blackout; guard reverts to IW10",
            chaos.run_lossy_agent,
            simulation_backed=True,
            supports_workers=True,
            fault_scenario="chaos_lossy_agent",
            fast=_FAST_CHAOS_STUDY,
        ),
        Experiment(
            "chaos_partition",
            "Chaos: PoP partition, trunk flap and degrade; recovery vs IW10",
            chaos.run_partition,
            simulation_backed=True,
            supports_workers=True,
            fault_scenario="chaos_partition",
            fast=_FAST_CHAOS_STUDY,
        ),
        Experiment(
            "chaos_flaky_tools",
            "Chaos: failing ip route, stale/partial ss, poll jitter",
            chaos.run_flaky_tools,
            simulation_backed=True,
            supports_workers=True,
            fault_scenario="chaos_flaky_tools",
            fast=_FAST_CHAOS_STUDY,
        ),
        Experiment(
            "tournament",
            "Policy zoo tournament: every window policy x every scenario",
            tournament.run_tournament,
            simulation_backed=True,
            supports_workers=True,
            fast={
                "config": tournament.TournamentConfig(
                    warmup=3.0, duration=10.0, probe_interval=2.0
                )
            },
        ),
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r} (known: {known})") from None


def list_experiments() -> list[Experiment]:
    return list(EXPERIMENTS.values())
