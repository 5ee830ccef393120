"""Figure 3: RTTs needed to transfer the Figure 2 files under different
initial congestion windows.

Paper anchors: "an increase to an initial congestion window of 50 would
allow ... over 31% more files able to complete in the first RTT.  Further
increasing the window to 100 would allow all but 15% of files to complete
in the first RTT."
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.tables import format_table
from repro.cdn.filesizes import FileSizeDistribution
from repro.model.slowstart import rtts_to_complete
from repro.sim.rand import RandomStreams

PAPER_INITCWNDS = (10, 25, 50, 100)


class Fig03Result:
    """Distribution of RTT counts per initcwnd."""

    __slots__ = ("samples", "rtt_fractions")

    def __init__(self, samples: int, rtt_fractions: dict[int, dict[int, float]]) -> None:
        self.samples = samples
        #: initcwnd -> {rtt_count: fraction}
        self.rtt_fractions = rtt_fractions

    def fraction_within(self, initcwnd: int, rtts: int) -> float:
        """Fraction of files completing in at most ``rtts`` round trips."""
        return sum(
            fraction
            for count, fraction in self.rtt_fractions[initcwnd].items()
            if count <= rtts
        )

    @property
    def extra_first_rtt_at_50(self) -> float:
        """Additional files that fit in one RTT at IW50 vs IW10 (paper: 31%)."""
        return self.fraction_within(50, 1) - self.fraction_within(10, 1)

    @property
    def not_first_rtt_at_100(self) -> float:
        """Files needing more than one RTT at IW100 (paper: 15%)."""
        return 1.0 - self.fraction_within(100, 1)

    def report(self) -> str:
        headers = ["initcwnd"] + [f"<= {r} RTT" for r in (1, 2, 3, 4)]
        rows = []
        for iw in sorted(self.rtt_fractions):
            rows.append(
                [str(iw)]
                + [f"{self.fraction_within(iw, r):.1%}" for r in (1, 2, 3, 4)]
            )
        table = format_table(
            headers, rows, title="Figure 3: RTTs to complete transfers"
        )
        anchors = (
            f"\nIW50 first-RTT gain over IW10: {self.extra_first_rtt_at_50:.1%}"
            f" (paper: ~31%)\n"
            f"IW100 files needing >1 RTT: {self.not_first_rtt_at_100:.1%}"
            f" (paper: ~15%)"
        )
        return table + anchors


def run(samples: int = 100_000) -> Fig03Result:
    distribution = FileSizeDistribution.production_cdn()
    rng = RandomStreams(42).stream("fig03")
    sizes = distribution.sample_many(rng, samples)
    fractions: dict[int, dict[int, float]] = {}
    for iw in PAPER_INITCWNDS:
        counts = Counter(rtts_to_complete(size, iw) for size in sizes)
        fractions[iw] = {
            rtts: count / samples for rtts, count in sorted(counts.items())
        }
    return Fig03Result(samples=samples, rtt_fractions=fractions)
