"""Figure 4: theoretical RTT reduction vs file size for larger initcwnds.

Paper anchor: "the primary improvements are seen between 15KB and 1000KB,
after which the benefits of reducing a single RTT diminish."
"""

from __future__ import annotations

import math

from repro.analysis.tables import format_table
from repro.model.gain import gain_fraction

PAPER_INITCWNDS = (25, 50, 100)
#: The swept file sizes, log-spaced.
MIN_BYTES = 1_000
MAX_BYTES = 50_000_000


class Fig04Result:
    """Gain curves over a logarithmic size sweep."""

    __slots__ = ("sizes_bytes", "gains")

    def __init__(self, sizes_bytes: list[int], gains: dict[int, list[float]]) -> None:
        self.sizes_bytes = sizes_bytes
        #: initcwnd -> gain fraction at each size
        self.gains = gains

    def peak_gain(self, initcwnd: int) -> float:
        return max(self.gains[initcwnd])

    def gain_at(self, initcwnd: int, size_bytes: int) -> float:
        """Gain at the sweep point closest to ``size_bytes``."""
        index = min(
            range(len(self.sizes_bytes)),
            key=lambda i: abs(self.sizes_bytes[i] - size_bytes),
        )
        return self.gains[initcwnd][index]

    def report(self) -> str:
        marks = (10_000, 15_000, 50_000, 100_000, 500_000, 1_000_000, 10_000_000)
        headers = ["size"] + [f"IW{iw}" for iw in sorted(self.gains)]
        rows = []
        for mark in marks:
            row = [f"{mark // 1000} KB"]
            for iw in sorted(self.gains):
                row.append(f"{self.gain_at(iw, mark):.0%}")
            rows.append(row)
        return format_table(
            headers,
            rows,
            title="Figure 4: theoretical RTT reduction vs IW10 baseline",
        )


def run(points: int = 400) -> Fig04Result:
    if points < 2:
        raise ValueError(f"need at least 2 sweep points, got {points}")
    ratio = math.log(MAX_BYTES / MIN_BYTES)
    sizes = [
        int(MIN_BYTES * math.exp(ratio * i / (points - 1))) for i in range(points)
    ]
    gains = {
        iw: [gain_fraction(size, iw) for size in sizes] for iw in PAPER_INITCWNDS
    }
    return Fig04Result(sizes_bytes=sizes, gains=gains)
