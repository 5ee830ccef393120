"""Theoretical gain from larger initial windows (Figure 4)."""

from __future__ import annotations

from repro.model.slowstart import rtts_to_complete
from repro.tcp.constants import DEFAULT_INIT_CWND


def gain_fraction(size_bytes: int, initcwnd: int) -> float:
    """Fractional reduction in RTTs versus the kernel default IW10.

    ``0.5`` means the transfer needs half as many round trips.  Zero-RTT
    transfers (empty files) gain nothing by definition.
    """
    baseline = rtts_to_complete(size_bytes, DEFAULT_INIT_CWND)
    if baseline == 0:
        return 0.0
    improved = rtts_to_complete(size_bytes, initcwnd)
    return 1.0 - improved / baseline


def gain_series(sizes_bytes: list[int], initcwnd: int) -> list[float]:
    """The Figure 4 series: gain over IW10 at each file size."""
    return [gain_fraction(size, initcwnd) for size in sizes_bytes]
