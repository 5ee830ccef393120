"""Operational advisories (Section V, "Additional Algorithms").

"If a cloud system were able to provide it with higher level information
(e.g., the need to perform immediate load balancing), it could be used
to set more conservative congestion windows to avoid sudden crowding."

An advisory is a time-bounded multiplicative scale applied to every
window Riptide computes, *after* clamping: the agent scales the
clamped window (flooring at ``c_min``) so that an operator halving
windows actually halves the installed values even when the raw computed
window sits above ``c_max`` — see ``RiptideAgent._tick``.  Overlapping
advisories compose by taking the most conservative (smallest) active
scale.
"""

from __future__ import annotations

from repro.records import Frozen


class Advisory(Frozen):
    """One active conservatism window."""

    __slots__ = ("scale", "until", "reason")

    scale: float
    until: float
    reason: str

    def __init__(self, scale: float, until: float, reason: str = "") -> None:
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"advisory scale must be in (0, 1], got {scale}")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "until", until)
        object.__setattr__(self, "reason", reason)

    def active(self, now: float) -> bool:
        return now < self.until


class AdvisoryController:
    """Tracks active advisories and produces the current scale."""

    def __init__(self) -> None:
        self._advisories: list[Advisory] = []

    def advise(
        self,
        scale: float,
        duration: float,
        now: float,
        reason: str = "",
    ) -> Advisory:
        """Register a conservatism advisory for ``duration`` seconds.

        Expired advisories are pruned as a side effect: a controller
        that only ever calls ``advise()`` (never ``scale_at``, e.g. on
        an agent whose poll loop is stopped) must not accumulate dead
        entries without bound.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        self._advisories = [a for a in self._advisories if a.active(now)]
        advisory = Advisory(scale=scale, until=now + duration, reason=reason)
        self._advisories.append(advisory)
        return advisory

    def scale_at(self, now: float) -> float:
        """The most conservative active scale (1.0 when none active).

        Expired advisories are pruned as a side effect.
        """
        self._advisories = [a for a in self._advisories if a.active(now)]
        if not self._advisories:
            return 1.0
        return min(a.scale for a in self._advisories)

    def __repr__(self) -> str:
        return f"<AdvisoryController advisories={len(self._advisories)}>"
