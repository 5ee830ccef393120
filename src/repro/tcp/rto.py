"""Round-trip-time estimation and retransmission timeouts (RFC 6298).

Karn's algorithm is applied by the socket (retransmitted segments never
produce samples); this class only maintains SRTT/RTTVAR and the backoff.
"""

from __future__ import annotations

import math
from math import inf

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
    ``INITIAL_RTO``.

    ``srtt`` and ``rto`` are read on every ACK, so both are plain
    attributes, refreshed where their inputs change and read-only by
    convention: a read enters no frame.
    """

    def __init__(self) -> None:
        #: Smoothed RTT in seconds, or None before the first sample.
        self.srtt: float | None = None
        self._rttvar: float = 0.0
        self._backoff_exponent = 0
        self._samples = 0
        #: Current retransmission timeout, including backoff.
        self.rto = self._compute_rto()

    @property
    def samples(self) -> int:
        return self._samples

    def _compute_rto(self) -> float:
        # Clamped by comparison, not min()/max(): either form yields the
        # same float.  ``add_sample`` repeats this in line for exponent 0.
        srtt = self.srtt
        rto = INITIAL_RTO if srtt is None else srtt + _K * self._rttvar
        if rto < MIN_RTO:
            rto = MIN_RTO
        exponent = self._backoff_exponent
        if exponent:
            rto *= 2 ** exponent
        return MAX_RTO if rto > MAX_RTO else rto

    def add_sample(self, rtt: float) -> None:
        """Fold in a fresh RTT measurement and clear any backoff.

        The sample must be finite and non-negative: one +inf sample would
        pin ``srtt`` at +inf for the rest of the connection.
        """
        if not 0 <= rtt < inf:  # also false for NaN
            raise ValueError(f"RTT sample must be finite and >= 0, got {rtt}")
        srtt = self.srtt
        if srtt is None:
            srtt = self.srtt = rtt
            rttvar = self._rttvar = rtt / 2.0
        else:
            deviation = srtt - rtt
            if deviation < 0:
                deviation = -deviation
            rttvar = self._rttvar = (1 - _BETA) * self._rttvar + _BETA * deviation
            srtt = self.srtt = (1 - _ALPHA) * srtt + _ALPHA * rtt
        self._samples += 1
        self._backoff_exponent = 0
        # ``_compute_rto`` with no backoff, without its frame: this runs
        # on every RTT sample.
        rto = srtt + _K * rttvar
        if rto < MIN_RTO:
            rto = MIN_RTO
        self.rto = MAX_RTO if rto > MAX_RTO else rto

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
        srtt = f"{self.srtt * 1e3:.1f}ms" if self.srtt is not None else "-"
        return f"<RttEstimator srtt={srtt} rto={self.rto * 1e3:.1f}ms>"
