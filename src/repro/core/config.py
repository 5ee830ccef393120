"""Riptide's tunable parameters (the paper's Table I).

| Parameter | Use                                      | Paper value   |
|-----------|------------------------------------------|---------------|
| alpha     | Weight applied to historical data        | (tunable)     |
| i_u       | Update interval to poll current windows  | 1 second      |
| t         | Time-to-live of a stored window          | 90 seconds    |
| c_max     | Maximum allowed window                   | 100 (chosen)  |
| c_min     | Minimum allowed window                   | 10 (default)  |
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.combiners import COMBINERS
from repro.policy.registry import policy_names

VALID_GRANULARITY = ("host", "prefix")


@dataclass(frozen=True, eq=False)
class RiptideConfig:
    """Parameters controlling one Riptide agent."""

    #: Weight applied to the historical value in the EWMA (Table I alpha).
    alpha: float = 0.7
    #: Seconds between ``ss`` polls (Table I i_u; 1 s in the evaluation).
    update_interval: float = 1.0
    #: Seconds before an unrefreshed entry expires (Table I t; 90 s).
    ttl: float = 90.0
    #: Window clamp (Table I c_max; the evaluation selects 100).
    c_max: int = 100
    #: Window clamp (Table I c_min; the Linux default of 10).
    c_min: int = 10
    #: Window-decision policy (``repro.policy``); "ewma" is the paper's.
    policy: str = "ewma"
    #: How simultaneous observations to one destination are combined.
    combiner: str = "average"
    #: Route granularity: per-host /32 routes or per-PoP /16 prefixes.
    granularity: str = "host"
    #: Resilience: the safety guard withdraws the learned route of any
    #: destination whose observed loss or RTT spikes, restoring the
    #: kernel default IW10 until the path looks healthy again.
    safety_guard: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if not self.update_interval > 0:
            raise ValueError(
                f"update_interval must be positive, got {self.update_interval}"
            )
        if not self.ttl > 0:
            raise ValueError(f"ttl must be positive, got {self.ttl}")
        if self.c_min < 1:
            raise ValueError(f"c_min must be >= 1, got {self.c_min}")
        if self.c_max < self.c_min:
            raise ValueError(
                f"c_max ({self.c_max}) must be >= c_min ({self.c_min})"
            )
        if self.policy not in policy_names():
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{', '.join(policy_names())}"
            )
        if self.combiner not in COMBINERS:
            raise ValueError(
                f"unknown combiner {self.combiner!r}; expected one of "
                f"{', '.join(sorted(COMBINERS))}"
            )
        if self.granularity not in VALID_GRANULARITY:
            raise ValueError(
                f"unknown granularity {self.granularity!r}; expected one of "
                f"{', '.join(VALID_GRANULARITY)}"
            )

    def clamp(self, window: float) -> int:
        """Bound a computed window to ``[c_min, c_max]`` (Algorithm 1)."""
        return int(round(min(max(window, float(self.c_min)), float(self.c_max))))
