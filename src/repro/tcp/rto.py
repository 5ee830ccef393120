"""Round-trip-time estimation and retransmission timeouts (RFC 6298).

Karn's algorithm is applied by the socket (retransmitted segments never
produce samples); this class only maintains SRTT/RTTVAR and the backoff.
"""

from __future__ import annotations

import math

from repro.tcp.constants import INITIAL_RTO, MAX_RTO, MIN_RTO

_ALPHA = 0.125
_BETA = 0.25
_K = 4.0

#: Backoff saturates once ``MIN_RTO * 2**exponent >= MAX_RTO`` (the base
#: is clamped to at least ``MIN_RTO``, so this bound holds for any base).
#: Growing the exponent past that point cannot change the RTO but
#: eventually overflows ``2 ** exp`` to an un-floatable bignum after
#: ~1024 consecutive timeouts.
_MAX_BACKOFF_EXPONENT = max(0, math.ceil(math.log2(MAX_RTO / MIN_RTO)))


class RttEstimator:
    """SRTT/RTTVAR tracker producing the current RTO, bounded by
    :data:`~repro.tcp.constants.MIN_RTO` and ``MAX_RTO`` and starting at
    ``INITIAL_RTO``."""

    def __init__(self) -> None:
        self._srtt: float | None = None
        self._rttvar: float = 0.0
        self._backoff_exponent = 0
        self._samples = 0
        #: Current retransmission timeout, including backoff: read on every
        #: ACK, so stored and refreshed where its inputs change.  Read-only.
        self.rto = self._compute_rto()

    @property
    def srtt(self) -> float | None:
        """Smoothed RTT in seconds, or None before the first sample."""
        return self._srtt

    @property
    def samples(self) -> int:
        return self._samples

    def _compute_rto(self) -> float:
        if self._srtt is None:
            base = INITIAL_RTO
        else:
            base = self._srtt + _K * self._rttvar
        base = min(max(base, MIN_RTO), MAX_RTO)
        backed_off = base * (2 ** self._backoff_exponent)
        return min(backed_off, MAX_RTO)

    def add_sample(self, rtt: float) -> None:
        """Fold in a fresh RTT measurement and clear any backoff."""
        if rtt < 0:
            raise ValueError(f"negative RTT sample: {rtt}")
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2.0
        else:
            self._rttvar = (1 - _BETA) * self._rttvar + _BETA * abs(self._srtt - rtt)
            self._srtt = (1 - _ALPHA) * self._srtt + _ALPHA * rtt
        self._samples += 1
        self._backoff_exponent = 0
        self.rto = self._compute_rto()

    def back_off(self) -> None:
        """Double the RTO after a retransmission timeout.

        The exponent is clamped where the RTO saturates ``MAX_RTO``, so
        arbitrarily long timeout streaks stay overflow-free.
        """
        if self._backoff_exponent < _MAX_BACKOFF_EXPONENT:
            self._backoff_exponent += 1
            self.rto = self._compute_rto()

    def reset_backoff(self) -> None:
        if self._backoff_exponent:
            self._backoff_exponent = 0
            self.rto = self._compute_rto()

    def __repr__(self) -> str:
        srtt = f"{self._srtt * 1e3:.1f}ms" if self._srtt is not None else "-"
        return f"<RttEstimator srtt={srtt} rto={self.rto * 1e3:.1f}ms>"
