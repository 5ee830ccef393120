"""Figures 12-14: probe completion-time CDFs, Riptide vs default.

For each probe size (10/50/100 KB) and each RTT bucket (<50 ms, 51-100,
101-150, >150 ms), compare the completion times of freshly opened probe
connections with and without Riptide.  Paper anchors: the 10 KB probes
are unchanged (they already fit in IW10); the 50 KB probes improve for
~30 % of connections; the 100 KB probes gain across ~78 % of
connections, with the gap growing at higher RTTs (stair-stepping a full
RTT at a time).
"""

from __future__ import annotations


from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.tables import format_table
from repro.cdn.probes import PAPER_PROBE_SIZES
from repro.cdn.transfer import RTT_BUCKETS
from repro.experiments.scenarios import ProbeStudyArm, ProbeStudyConfig, run_paired_probe_study

BUCKET_LABELS = tuple(label for label, _ in RTT_BUCKETS)

#: Riptide must be faster by more than this fraction at a CDF level for
#: the level to count as improved.
IMPROVED_TOLERANCE = 0.02


class BucketComparison:
    """Control vs Riptide for one (size, bucket) cell."""

    __slots__ = ("size_bytes", "bucket", "control", "riptide")

    def __init__(
        self,
        size_bytes: int,
        bucket: str,
        control: EmpiricalCdf | None,
        riptide: EmpiricalCdf | None,
    ) -> None:
        self.size_bytes = size_bytes
        self.bucket = bucket
        self.control = control
        self.riptide = riptide

    @property
    def populated(self) -> bool:
        return self.control is not None and self.riptide is not None

    @property
    def median_gain(self) -> float:
        """Fractional median improvement (positive = Riptide faster)."""
        if not self.populated or self.control.median == 0:
            return 0.0
        return 1.0 - self.riptide.median / self.control.median

    def fraction_improved(self) -> float:
        """Fraction of CDF levels where Riptide is meaningfully faster.

        Compares the two CDFs at every 2nd percentile — the visual
        "fraction of the CDF where the Riptide curve sits left of the
        default curve" in Figures 12-14.
        """
        if not self.populated:
            return 0.0
        levels = [p / 100.0 for p in range(2, 100, 2)]
        improved = 0
        for level in levels:
            control_value = self.control.quantile(level)
            riptide_value = self.riptide.quantile(level)
            if control_value > 0 and riptide_value < control_value * (
                1 - IMPROVED_TOLERANCE
            ):
                improved += 1
        return improved / len(levels)


class Fig1214Result:
    """All (size, bucket) comparisons."""

    __slots__ = ("cells",)

    def __init__(self, cells: dict[tuple[int, str], BucketComparison]) -> None:
        self.cells = cells

    def fraction_improved_for_size(self, size_bytes: int) -> float:
        """Probe-weighted fraction of the size's CDF mass that improved."""
        total_weight = 0
        weighted = 0.0
        for (size, _), cell in self.cells.items():
            if size != size_bytes or not cell.populated:
                continue
            weight = len(cell.control)
            total_weight += weight
            weighted += weight * cell.fraction_improved()
        return weighted / total_weight if total_weight else 0.0

    def report(self) -> str:
        headers = ("size", "bucket", "ctrl median", "riptide median",
                   "median gain", "improved")
        rows = []
        for (size, bucket), cell in sorted(self.cells.items()):
            if not cell.populated:
                rows.append((f"{size // 1000}KB", bucket, "-", "-", "-", "-"))
                continue
            rows.append(
                (
                    f"{size // 1000}KB",
                    bucket,
                    f"{cell.control.median * 1000:.0f}ms",
                    f"{cell.riptide.median * 1000:.0f}ms",
                    f"{cell.median_gain:+.0%}",
                    f"{cell.fraction_improved():.0%}",
                )
            )
        table = format_table(
            headers, rows,
            title="Figures 12-14: probe completion times (all probes)",
        )
        anchors = (
            f"\n10KB improved fraction: "
            f"{self.fraction_improved_for_size(10_000):.0%} (paper: ~0%)\n"
            f"50KB improved fraction: "
            f"{self.fraction_improved_for_size(50_000):.0%} (paper: ~30%)\n"
            f"100KB improved fraction: "
            f"{self.fraction_improved_for_size(100_000):.0%} (paper: ~78%)"
        )
        return table + anchors


def build_result(
    control: ProbeStudyArm,
    riptide: ProbeStudyArm,
    sizes: tuple[int, ...] = PAPER_PROBE_SIZES,
) -> Fig1214Result:
    """Assemble the per-(size, bucket) comparisons from a paired study."""
    cells = {}
    for size in sizes:
        for bucket in BUCKET_LABELS:
            control_times = control.fleet.completion_times(
                size_bytes=size, bucket=bucket
            )
            riptide_times = riptide.fleet.completion_times(
                size_bytes=size, bucket=bucket
            )
            cells[(size, bucket)] = BucketComparison(
                size_bytes=size,
                bucket=bucket,
                control=EmpiricalCdf(control_times) if control_times else None,
                riptide=EmpiricalCdf(riptide_times) if riptide_times else None,
            )
    return Fig1214Result(cells=cells)


def run(config: ProbeStudyConfig | None = None, workers: int = 1) -> Fig1214Result:
    control, riptide = run_paired_probe_study(config, workers=workers)
    return build_result(control, riptide)
