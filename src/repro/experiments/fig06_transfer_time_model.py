"""Figure 6: modelled transfer time of a 100 KB file over the Figure 5
RTT distribution, per initial congestion window.

Paper anchors: "In the median case, the transfer time is over 280ms
longer than the initial congestion window of 100 case, while at the 90th
percentile, we see the total transfer time increase by 290ms, about
100%."
"""

from __future__ import annotations


from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.tables import format_cdf_rows
from repro.cdn.topology import build_paper_topology
from repro.model.slowstart import transfer_time

PAPER_INITCWNDS = (10, 25, 50, 100)
FILE_BYTES = 100_000


class Fig06Result:
    """Transfer-time distributions per initcwnd."""

    __slots__ = ("file_bytes", "cdfs")

    def __init__(self, file_bytes: int, cdfs: dict[int, EmpiricalCdf]) -> None:
        self.file_bytes = file_bytes
        self.cdfs = cdfs

    def median_penalty_vs_100(self) -> float:
        """Extra IW10 median seconds versus the IW100 case (paper: >280 ms)."""
        return self.cdfs[10].median - self.cdfs[100].median

    def p90_penalty_vs_100(self) -> float:
        """Extra IW10 90th-percentile seconds versus the IW100 case."""
        return self.cdfs[10].quantile(0.9) - self.cdfs[100].quantile(0.9)

    def report(self) -> str:
        table = format_cdf_rows(
            {f"IW{iw}": cdf for iw, cdf in sorted(self.cdfs.items())},
            title=f"Figure 6: modelled transfer time of a {self.file_bytes // 1000} KB file (s)",
        )
        anchors = (
            f"\nmedian IW10 penalty vs IW100: "
            f"{self.median_penalty_vs_100() * 1000:.0f} ms (paper: >280 ms)\n"
            f"p90 IW10 penalty vs IW100: "
            f"{self.p90_penalty_vs_100() * 1000:.0f} ms (paper: ~290 ms, ~100%)"
        )
        return table + anchors


def run() -> Fig06Result:
    rtts = build_paper_topology().all_pair_rtts()
    cdfs = {
        iw: EmpiricalCdf([transfer_time(FILE_BYTES, iw, rtt) for rtt in rtts])
        for iw in PAPER_INITCWNDS
    }
    return Fig06Result(file_bytes=FILE_BYTES, cdfs=cdfs)
