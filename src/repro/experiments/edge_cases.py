"""Section IV-D: edge cases — best- and worst-case probe times.

Paper anchors: per-destination *minimum* completion times are essentially
unchanged (75 % of EU destinations show no change, the rest within
±5 %) because the best probes already complete in the minimum possible
RTTs; per-destination *maximum* times are noisy with no discernible
trend.
"""

from __future__ import annotations


from repro.analysis.tables import format_table
from repro.experiments.scenarios import (
    EU_SOURCE,
    ProbeStudyArm,
    ProbeStudyConfig,
    run_paired_probe_study,
)

PROBE_BYTES = 100_000

#: A best case that moved by at most this fraction counts as unchanged
#: (the paper's "within ±5 %").
MIN_CHANGE_TOLERANCE = 0.05


class DestinationExtremes:
    """Min/max probe times toward one destination, both arms."""

    __slots__ = ("destination_pop", "control_min", "riptide_min", "control_max", "riptide_max")

    def __init__(
        self,
        destination_pop: str,
        control_min: float,
        riptide_min: float,
        control_max: float,
        riptide_max: float,
    ) -> None:
        self.destination_pop = destination_pop
        self.control_min = control_min
        self.riptide_min = riptide_min
        self.control_max = control_max
        self.riptide_max = riptide_max

    @property
    def min_change(self) -> float:
        """Relative change of the best case (negative = Riptide faster)."""
        if self.control_min == 0:
            return 0.0
        return self.riptide_min / self.control_min - 1.0

    @property
    def max_change(self) -> float:
        if self.control_max == 0:
            return 0.0
        return self.riptide_max / self.control_max - 1.0


class EdgeCasesResult:
    """Per-destination extremes for one source PoP."""

    __slots__ = ("source_pop", "destinations")

    def __init__(self, source_pop: str, destinations: list[DestinationExtremes]) -> None:
        self.source_pop = source_pop
        self.destinations = destinations

    def fraction_min_within(self) -> float:
        """Fraction of destinations whose best case changed by at most
        ``MIN_CHANGE_TOLERANCE``."""
        if not self.destinations:
            return 0.0
        within = sum(
            1 for d in self.destinations if abs(d.min_change) <= MIN_CHANGE_TOLERANCE
        )
        return within / len(self.destinations)

    def report(self) -> str:
        rows = [
            (
                d.destination_pop,
                f"{d.control_min * 1000:.0f}ms",
                f"{d.riptide_min * 1000:.0f}ms",
                f"{d.min_change:+.1%}",
                f"{d.max_change:+.1%}",
            )
            for d in self.destinations
        ]
        table = format_table(
            ("destination", "ctrl min", "riptide min", "min change", "max change"),
            rows,
            title=f"Section IV-D: edge cases for {PROBE_BYTES // 1000}KB probes "
            f"from {self.source_pop}",
        )
        anchor = (
            f"\ndestinations with best case within ±5%: "
            f"{self.fraction_min_within():.0%} (paper: most)"
        )
        return table + anchor


def build_result(control: ProbeStudyArm, riptide: ProbeStudyArm) -> EdgeCasesResult:
    """Per-destination extremes of the ``PROBE_BYTES`` probes from the EU
    source PoP."""
    destinations = sorted(
        {
            probe.destination_pop
            for probe in control.fleet.completed_results(
                size_bytes=PROBE_BYTES, source_pop=EU_SOURCE
            )
        }
    )
    extremes = []
    for destination in destinations:
        control_times = [
            p.total_time
            for p in control.fleet.completed_results(
                size_bytes=PROBE_BYTES, source_pop=EU_SOURCE
            )
            if p.destination_pop == destination
        ]
        riptide_times = [
            p.total_time
            for p in riptide.fleet.completed_results(
                size_bytes=PROBE_BYTES, source_pop=EU_SOURCE
            )
            if p.destination_pop == destination
        ]
        if not control_times or not riptide_times:
            continue
        extremes.append(
            DestinationExtremes(
                destination_pop=destination,
                control_min=min(control_times),
                riptide_min=min(riptide_times),
                control_max=max(control_times),
                riptide_max=max(riptide_times),
            )
        )
    return EdgeCasesResult(source_pop=EU_SOURCE, destinations=extremes)


def run(config: ProbeStudyConfig | None = None, workers: int = 1) -> EdgeCasesResult:
    control, riptide = run_paired_probe_study(config, workers=workers)
    return build_result(control, riptide)
