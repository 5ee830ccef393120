#!/usr/bin/env python3
"""A miniature of the paper's production evaluation (Section IV).

Builds a multi-continent CDN sub-topology, runs organic traffic on every
PoP, then sends the 10/50/100 KB diagnostic probe fleet from a European
and a North American vantage point — once without Riptide (control) and
once with it.  Prints the Figure 12-14 completion-time table and the
Figure 15-16 percentile-gain profile.

Run:  python examples/probe_study.py          (about a minute)
"""

from repro.experiments import fig12_14_probe_times, fig15_16_percentile_gain
from repro.experiments.scenarios import (
    PROBE_SOURCE_POPS,
    ProbeStudyConfig,
    run_paired_probe_study,
)


def main() -> None:
    config = ProbeStudyConfig(
        topology_codes=("LHR", "AMS", "JFK", "IAD", "NRT", "SYD"),
        warmup=15.0,
        duration=40.0,
        probe_interval=6.0,
    )
    print("== paired probe study (control vs Riptide) ==")
    print(f"PoPs: {', '.join(config.topology_codes)}")
    print(f"sources: {', '.join(PROBE_SOURCE_POPS)}")
    print("running both arms...\n")

    control, riptide = run_paired_probe_study(config)
    print(
        f"control: {len(control.fleet.results)} probes, "
        f"riptide: {len(riptide.fleet.results)} probes\n"
    )

    print(fig12_14_probe_times.build_result(control, riptide).report())
    print()
    print(fig15_16_percentile_gain.build_result(control, riptide).report())

    learned = sum(len(a.learned_table()) for a in riptide.cluster.all_agents())
    installs = sum(a.stats.routes_installed for a in riptide.cluster.all_agents())
    print(f"\nRiptide state: {learned} live learned routes, "
          f"{installs} route installs issued")


if __name__ == "__main__":
    main()
