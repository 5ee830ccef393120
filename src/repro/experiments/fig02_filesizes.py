"""Figure 2: distribution of file sizes in a production CDN.

Paper anchor: "a significant fraction of files, 54%, are too large to fit
in the default window of 10 segments" (10 x 1460 B = 14.6 KB).
"""

from __future__ import annotations


from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.tables import format_table
from repro.cdn.filesizes import FileSizeDistribution
from repro.sim.rand import RandomStreams
from repro.tcp.constants import DEFAULT_MSS

#: Bytes that fit in the default 10-segment initial window.
DEFAULT_WINDOW_BYTES = 10 * DEFAULT_MSS


class Fig02Result:
    """Sampled file-size distribution and its paper anchors."""

    __slots__ = ("cdf", "fraction_exceeding_default_window", "analytic_fraction_exceeding")

    def __init__(
        self,
        cdf: EmpiricalCdf,
        fraction_exceeding_default_window: float,
        analytic_fraction_exceeding: float,
    ) -> None:
        self.cdf = cdf
        self.fraction_exceeding_default_window = fraction_exceeding_default_window
        self.analytic_fraction_exceeding = analytic_fraction_exceeding

    def report(self) -> str:
        levels = (10, 25, 50, 75, 90, 99)
        rows = [
            (f"p{level}", f"{self.cdf.quantile(level / 100.0) / 1024:.1f} KB")
            for level in levels
        ]
        rows.append(
            (
                "> IW10 (14.6 KB)",
                f"{self.fraction_exceeding_default_window:.1%} "
                f"(paper: 54%, analytic: {self.analytic_fraction_exceeding:.1%})",
            )
        )
        return format_table(
            ("statistic", "value"),
            rows,
            title="Figure 2: production CDN file-size distribution",
        )


def run(samples: int = 200_000) -> Fig02Result:
    """Sample the calibrated distribution and measure the anchors."""
    distribution = FileSizeDistribution.production_cdn()
    rng = RandomStreams(42).stream("fig02")
    sizes = distribution.sample_many(rng, samples)
    cdf = EmpiricalCdf(sizes)
    return Fig02Result(
        cdf=cdf,
        fraction_exceeding_default_window=1.0 - cdf.cdf(DEFAULT_WINDOW_BYTES),
        analytic_fraction_exceeding=distribution.fraction_exceeding(
            DEFAULT_WINDOW_BYTES
        ),
    )
