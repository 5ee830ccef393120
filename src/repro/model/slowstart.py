"""Slow-start round arithmetic."""

from __future__ import annotations

import math

from repro.tcp.constants import DEFAULT_MSS


def segments_for(size_bytes: int) -> int:
    """Number of ``DEFAULT_MSS``-sized segments needed to carry ``size_bytes``."""
    if size_bytes < 0:
        raise ValueError(f"size must be >= 0, got {size_bytes}")
    return math.ceil(size_bytes / DEFAULT_MSS)


def rounds_schedule(initcwnd: int, rounds: int) -> list[int]:
    """Cumulative segments deliverable after each slow-start round.

    Round ``i`` (1-based) sends ``initcwnd * 2**(i-1)`` segments, so the
    cumulative schedule is ``initcwnd * (2**i - 1)``.
    """
    if initcwnd < 1:
        raise ValueError(f"initcwnd must be >= 1, got {initcwnd}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    return [initcwnd * (2**i - 1) for i in range(1, rounds + 1)]


def rtts_to_complete(size_bytes: int, initcwnd: int) -> int:
    """RTTs needed to deliver ``size_bytes`` under lossless slow start.

    A zero-byte transfer needs 0 RTTs; anything that fits in the initial
    window needs exactly 1.  Closed form: with ``n`` segments required,
    the smallest ``r`` with ``initcwnd * (2**r - 1) >= n``.
    """
    if initcwnd < 1:
        raise ValueError(f"initcwnd must be >= 1, got {initcwnd}")
    n = segments_for(size_bytes)
    if n == 0:
        return 0
    return math.ceil(math.log2(n / initcwnd + 1.0))


def transfer_time(size_bytes: int, initcwnd: int, rtt: float) -> float:
    """Model transfer time in seconds (the handshake not charged)."""
    if rtt < 0:
        raise ValueError(f"rtt must be >= 0, got {rtt}")
    return rtts_to_complete(size_bytes, initcwnd) * rtt
