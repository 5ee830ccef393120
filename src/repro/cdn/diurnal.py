"""Time-varying traffic intensity (diurnal profiles).

Real CDN PoPs see strong day/night cycles.  For Riptide this matters
through the TTL: in a deep traffic valley no connections remain to a
destination, the learned entries expire, and the first transfers of the
next peak start from the kernel default again.  A :class:`RateProfile`
scales a workload's arrival rate over simulated time so experiments can
reproduce that regime.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass


class RateProfile(ABC):
    """A multiplicative modulation of a base arrival rate over time."""

    @abstractmethod
    def factor(self, now: float) -> float:
        """The rate multiplier at simulated time ``now`` (>= 0)."""

    @property
    @abstractmethod
    def max_factor(self) -> float:
        """An upper bound on :meth:`factor` over all time.

        Workloads sample arrivals at ``base_rate * max_factor`` and thin
        them down to the instantaneous rate (Lewis-Shedler), which is
        exact for any bounded profile.
        """


class ConstantProfile(RateProfile):
    """No modulation (the default behaviour)."""

    def factor(self, now: float) -> float:
        return 1.0

    @property
    def max_factor(self) -> float:
        return 1.0


@dataclass(frozen=True, eq=False)
class OnOffProfile(RateProfile):
    """A hard valley: full rate for ``on_duration``, silence for
    ``off_duration``, repeating.  The sharpest test of TTL expiry."""

    on_duration: float
    off_duration: float

    def __post_init__(self) -> None:
        if self.on_duration <= 0 or self.off_duration <= 0:
            raise ValueError("durations must be positive")

    def factor(self, now: float) -> float:
        cycle = self.on_duration + self.off_duration
        return 1.0 if (now % cycle) < self.on_duration else 0.0

    @property
    def max_factor(self) -> float:
        return 1.0
