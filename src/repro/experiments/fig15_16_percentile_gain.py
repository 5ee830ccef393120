"""Figures 15-16: fraction of gain by percentile, per source PoP.

For the 50 KB probes (Figure 15) the paper sees "almost no change" below
the 50th-60th percentile and gains up to ~30 % (EU) / ~21 % (NA) above;
for the 100 KB probes (Figure 16) gains are broader — from the 30th
percentile up for the EU PoP and across all percentiles for the NA PoP,
reaching ~25 %.
"""

from __future__ import annotations


from repro.analysis.stats import PercentileGain, percentile_gain_profile
from repro.analysis.tables import format_table
from repro.experiments.scenarios import (
    EU_SOURCE,
    NA_SOURCE,
    ProbeStudyArm,
    ProbeStudyConfig,
    run_paired_probe_study,
)

PROFILE_SIZES = (50_000, 100_000)
PROFILE_SOURCES = (EU_SOURCE, NA_SOURCE)


class Fig1516Result:
    """Percentile-gain profiles keyed by (size, source PoP)."""

    __slots__ = ("profiles",)

    def __init__(self, profiles: dict[tuple[int, str], list[PercentileGain]]) -> None:
        self.profiles = profiles

    def profile(self, size_bytes: int, source_pop: str) -> list[PercentileGain]:
        return self.profiles[(size_bytes, source_pop)]

    def max_gain(self, size_bytes: int, source_pop: str) -> float:
        return max(g.gain for g in self.profile(size_bytes, source_pop))

    def report(self) -> str:
        headers = ["percentile"] + [
            f"{size // 1000}KB/{pop}" for (size, pop) in sorted(self.profiles)
        ]
        sample_profile = next(iter(self.profiles.values()))
        rows = []
        for i, gain in enumerate(sample_profile):
            row = [f"p{gain.percentile:.0f}"]
            for key in sorted(self.profiles):
                row.append(f"{self.profiles[key][i].gain:+.0%}")
            rows.append(row)
        table = format_table(
            headers, rows,
            title="Figures 15-16: fraction of gain by percentile",
        )
        anchors = (
            f"\nmax 50KB gain (EU): {self.max_gain(50_000, EU_SOURCE):.0%}"
            f" (paper: ~30%)\n"
            f"max 100KB gain (NA): {self.max_gain(100_000, NA_SOURCE):.0%}"
            f" (paper: ~25%)"
        )
        return table + anchors


def build_result(control: ProbeStudyArm, riptide: ProbeStudyArm) -> Fig1516Result:
    profiles = {}
    for size in PROFILE_SIZES:
        for pop in PROFILE_SOURCES:
            baseline = control.fleet.completion_times(
                size_bytes=size, source_pop=pop
            )
            treatment = riptide.fleet.completion_times(
                size_bytes=size, source_pop=pop
            )
            profiles[(size, pop)] = percentile_gain_profile(baseline, treatment)
    return Fig1516Result(profiles=profiles)


def run(config: ProbeStudyConfig | None = None, workers: int = 1) -> Fig1516Result:
    control, riptide = run_paired_probe_study(config, workers=workers)
    return build_result(control, riptide)
