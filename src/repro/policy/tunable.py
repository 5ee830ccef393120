"""A TCPTuner-style runtime-tunable window policy.

TCPTuner (Miller & Hsiao) exposed the kernel's congestion-control
parameters as live knobs an operator (or controller loop) can turn
while traffic flows.  This policy does the same for the initial-window
decision: an EWMA learner whose gain and cap are runtime-settable via
:meth:`TunablePolicy.set_knob`, with the cap wired into the safety
guard as an AIMD control surface — every guard trip multiplicatively
backs the cap off toward ``c_min``, and sustained clean operation
additively recovers it toward ``c_max``.
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
    """EWMA learning behind runtime-tunable gain and an AIMD cap."""

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
        self._knobs: dict[str, float] = {
            "gain": 1.0,
            "cap": float(config.c_max),
            "backoff": self.BACKOFF,
            "recovery_step": self.RECOVERY_STEP,
            "recovery_interval": self.RECOVERY_INTERVAL,
        }
        self._last_adjust: float | None = None

    # -- the runtime control surface ----------------------------------

    def set_knob(self, name: str, value: float) -> None:
        """Turn one knob while the agent runs."""
        if name not in self._knobs:
            known = ", ".join(sorted(self._knobs))
            raise ValueError(f"unknown knob {name!r} (known: {known})")
        value = float(value)
        if name == "gain" and value <= 0.0:
            raise ValueError(f"gain must be positive, got {value}")
        if name == "cap" and not (
            self._config.c_min <= value <= self._config.c_max
        ):
            raise ValueError(
                f"cap must be in [{self._config.c_min}, "
                f"{self._config.c_max}], got {value}"
            )
        if name == "backoff" and not 0.0 < value < 1.0:
            raise ValueError(f"backoff must be in (0, 1), got {value}")
        if name == "recovery_step" and value <= 0.0:
            raise ValueError(f"recovery_step must be positive, got {value}")
        if name == "recovery_interval" and value <= 0.0:
            raise ValueError(
                f"recovery_interval must be positive, got {value}"
            )
        self._knobs[name] = value

    # -- the decision step --------------------------------------------

    def decide(
        self, destination: Prefix, samples: list[Observation], now: float
    ) -> float:
        self._recover(now)
        learned = self._learner.decide(destination, samples, now)
        return min(learned * self._knobs["gain"], self._knobs["cap"])

    def _recover(self, now: float) -> None:
        """Additive increase: walk the cap back up while trips stay away."""
        if self._last_adjust is None:
            self._last_adjust = now
            return
        interval = self._knobs["recovery_interval"]
        while (
            now - self._last_adjust >= interval
            and self._knobs["cap"] < self._config.c_max
        ):
            self._knobs["cap"] = min(
                float(self._config.c_max),
                self._knobs["cap"] + self._knobs["recovery_step"],
            )
            self._last_adjust += interval
        if self._knobs["cap"] >= self._config.c_max:
            self._last_adjust = now

    # -- lifecycle ----------------------------------------------------

    def on_guard_trip(self, destination: Prefix, reason: str, now: float) -> None:
        """Multiplicative decrease: a trip anywhere backs the cap off."""
        self._learner.forget(destination)
        self._knobs["cap"] = max(
            float(self._config.c_min),
            self._knobs["cap"] * self._knobs["backoff"],
        )
        self._last_adjust = now

    def forget(self, destination: Prefix) -> None:
        self._learner.forget(destination)

    def reset(self) -> None:
        self._learner.reset()
        self._knobs["gain"] = 1.0
        self._knobs["cap"] = float(self._config.c_max)
        self._last_adjust = None
