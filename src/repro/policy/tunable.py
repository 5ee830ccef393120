"""A TCPTuner-style window policy whose cap the safety guard turns.

TCPTuner (Miller & Hsiao) exposed the kernel's congestion-control
parameters as live knobs a controller loop can turn while traffic
flows.  This policy turns one for the initial-window decision: an EWMA
learner under a cap wired into the safety guard as an AIMD control
surface — every guard trip multiplicatively backs the cap off toward
``c_min``, and sustained clean operation additively recovers it toward
``c_max``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.combiners import Observation
from repro.net.addresses import Prefix
from repro.policy.base import WindowPolicy
from repro.policy.learners import EwmaPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import RiptideConfig


class TunablePolicy(WindowPolicy):
    """EWMA learning behind an AIMD cap."""

    name = "tunable"

    #: Multiplicative cap backoff per guard trip (TCP's beta).
    BACKOFF = 0.5
    #: Additive cap recovery per step, in segments.
    RECOVERY_STEP = 4.0
    #: Seconds of trip-free operation per recovery step.
    RECOVERY_INTERVAL = 10.0

    def __init__(self, config: "RiptideConfig") -> None:
        self._config = config
        self._learner = EwmaPolicy(config)
        self._cap = float(config.c_max)
        self._last_adjust: float | None = None

    # -- the decision step --------------------------------------------

    def decide(
        self, destination: Prefix, samples: list[Observation], now: float
    ) -> float:
        self._recover(now)
        learned = self._learner.decide(destination, samples, now)
        return min(learned, self._cap)

    def _recover(self, now: float) -> None:
        """Additive increase: walk the cap back up while trips stay away."""
        if self._last_adjust is None:
            self._last_adjust = now
            return
        interval = self.RECOVERY_INTERVAL
        while now - self._last_adjust >= interval and self._cap < self._config.c_max:
            self._cap = min(float(self._config.c_max), self._cap + self.RECOVERY_STEP)
            self._last_adjust += interval
        if self._cap >= self._config.c_max:
            self._last_adjust = now

    # -- lifecycle ----------------------------------------------------

    def on_guard_trip(self, destination: Prefix, reason: str, now: float) -> None:
        """Multiplicative decrease: a trip anywhere backs the cap off."""
        self._learner.forget(destination)
        self._cap = max(float(self._config.c_min), self._cap * self.BACKOFF)
        self._last_adjust = now

    def forget(self, destination: Prefix) -> None:
        self._learner.forget(destination)

    def reset(self) -> None:
        self._learner.reset()
        self._cap = float(self._config.c_max)
        self._last_adjust = None
