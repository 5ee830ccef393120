"""Figure 5: RTT variation between globally deployed datacenters.

Paper anchor: "in the median case we observe RTTs of over 125ms" — half
of all PoP pairs are at least that far apart.
"""

from __future__ import annotations


from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.tables import format_table
from repro.cdn.topology import build_paper_topology


class Fig05Result:
    """The all-pairs RTT population."""

    __slots__ = ("cdf", "fraction_over_125ms")

    def __init__(self, cdf: EmpiricalCdf, fraction_over_125ms: float) -> None:
        self.cdf = cdf
        self.fraction_over_125ms = fraction_over_125ms

    def report(self) -> str:
        rows = [
            (f"p{level}", f"{self.cdf.quantile(level / 100.0) * 1000:.0f} ms")
            for level in (10, 25, 50, 75, 90)
        ]
        rows.append(("pairs > 125 ms", f"{self.fraction_over_125ms:.0%} (paper: 50%)"))
        return format_table(
            ("statistic", "value"),
            rows,
            title="Figure 5: inter-PoP RTT distribution",
        )


def run() -> Fig05Result:
    rtts = build_paper_topology().all_pair_rtts()
    cdf = EmpiricalCdf(rtts)
    return Fig05Result(
        cdf=cdf,
        fraction_over_125ms=1.0 - cdf.cdf(0.125),
    )
