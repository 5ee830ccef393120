"""The congestion-control interface.

Windows are held in *segments* (as Linux does).  ``cwnd`` is kept as a
float internally so sub-segment growth in congestion avoidance accumulates;
the socket uses :attr:`cwnd_segments` (the floor, never below 1) when
deciding whether it may transmit.  The new-data branch of
``TcpSocket._try_send`` reads it in line as ``int(cwnd) or 1``, since it
runs on every ACK.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

#: ssthresh starts effectively unbounded (slow start until first loss).
INITIAL_SSTHRESH = float("inf")

#: Loss events never push the window below this (RFC 5681).
MIN_CWND = 2.0


class CongestionControl(ABC):
    """Base class for congestion-control algorithms."""

    name = "abstract"

    def __init__(self, initial_cwnd: int, mss: int) -> None:
        if initial_cwnd < 1:
            raise ValueError(f"initial cwnd must be >= 1, got {initial_cwnd}")
        if mss <= 0:
            raise ValueError(f"mss must be positive, got {mss}")
        self.mss = mss
        self.initial_cwnd = int(initial_cwnd)
        self.cwnd: float = float(initial_cwnd)
        self.ssthresh: float = INITIAL_SSTHRESH

    @property
    def cwnd_segments(self) -> int:
        """Usable window in whole segments (>= 1)."""
        return max(1, math.floor(self.cwnd))

    def on_ack(self, now: float, acked_bytes: int, rtt: float | None) -> None:
        """Grow the window for ``acked_bytes`` of newly acknowledged data."""
        acked_segments = acked_bytes / self.mss
        if acked_segments <= 0:
            return
        cwnd = self.cwnd
        ssthresh = self.ssthresh
        if cwnd < ssthresh:
            # Slow start, with appropriate byte counting: one segment of
            # growth per segment-worth of acked data, capped at the
            # slow-start exit.  Compared, not min()'d: once per ACK.
            grown = cwnd + acked_segments
            self.cwnd = ssthresh if ssthresh < grown else grown
        else:
            self._avoid_congestion(now, acked_segments, rtt)

    @abstractmethod
    def _avoid_congestion(
        self, now: float, acked_segments: float, rtt: float | None
    ) -> None:
        """Grow the window while in congestion avoidance."""

    @abstractmethod
    def on_loss_event(self, now: float) -> None:
        """React to a fast-retransmit loss event (multiplicative decrease).

        Implementations must set ``ssthresh`` (and any internal epoch
        state); the socket sets ``cwnd = ssthresh`` when recovery exits.
        """

    def on_retransmit_timeout(self, now: float) -> None:
        """An RTO fired: collapse to one segment and re-enter slow start."""
        self.on_loss_event(now)
        self.cwnd = 1.0

    def after_recovery(self) -> None:
        """Called when NewReno fast recovery completes."""
        self.cwnd = max(self.ssthresh, MIN_CWND)

    def __repr__(self) -> str:
        ssthresh = "inf" if math.isinf(self.ssthresh) else f"{self.ssthresh:.1f}"
        return f"<{type(self).__name__} cwnd={self.cwnd:.2f} ssthresh={ssthresh}>"
