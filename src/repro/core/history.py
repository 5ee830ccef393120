"""History policies (Section III-B, "The use of history is also flexible").

A history policy folds each tick's freshly combined value into the
destination's past.  The paper's deployment uses an exponentially
weighted moving average: "assigning alpha weight to the historical value,
and 1 - alpha to the newly seen value", which "prevents the congestion
window from enacting dangerous increases, and likewise prevents the
window from plummeting" on connection churn.  Alternatives from the
discussion: a longer-view windowed mean, or no history at all.

Policies are stateful per destination key; :meth:`HistoryPolicy.forget`
drops a destination's state when its TTL expires.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Hashable


class HistoryPolicy(ABC):
    """Per-destination temporal smoothing."""

    name = "abstract"

    @abstractmethod
    def update(self, key: Hashable, new_value: float) -> float:
        """Fold ``new_value`` into ``key``'s history; return the result."""

    @abstractmethod
    def forget(self, key: Hashable) -> None:
        """Drop all state for ``key`` (TTL expiry)."""


class EwmaHistory(HistoryPolicy):
    """The paper's policy: ``alpha * previous + (1 - alpha) * new``."""

    name = "ewma"

    def __init__(self, alpha: float) -> None:
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        self.alpha = alpha
        self._state: dict[Hashable, float] = {}

    def update(self, key: Hashable, new_value: float) -> float:
        previous = self._state.get(key)
        if previous is None:
            result = new_value
        else:
            result = self.alpha * previous + (1.0 - self.alpha) * new_value
        self._state[key] = result
        return result

    def forget(self, key: Hashable) -> None:
        self._state.pop(key, None)


class WindowedHistory(HistoryPolicy):
    """Longer-view smoothing: the mean of the last ``window`` values."""

    name = "windowed"

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._state: dict[Hashable, deque[float]] = {}

    def update(self, key: Hashable, new_value: float) -> float:
        values = self._state.get(key)
        if values is None:
            values = deque(maxlen=self.window)
            self._state[key] = values
        values.append(new_value)
        return sum(values) / len(values)

    def forget(self, key: Hashable) -> None:
        self._state.pop(key, None)


class NoHistory(HistoryPolicy):
    """React instantly: the newest observation wins outright."""

    name = "none"

    def update(self, key: Hashable, new_value: float) -> float:
        return new_value

    def forget(self, key: Hashable) -> None:
        """Nothing is kept, so nothing is dropped."""


_POLICIES = {
    EwmaHistory.name: lambda alpha, window: EwmaHistory(alpha),
    WindowedHistory.name: lambda alpha, window: WindowedHistory(window),
    NoHistory.name: lambda alpha, window: NoHistory(),
}


def make_history_policy(name: str, alpha: float, window: int) -> HistoryPolicy:
    """Instantiate a history policy by its registered name."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        # A config typo is a plain ValueError; the internal KeyError is
        # an implementation detail and would only muddy the traceback.
        known = ", ".join(sorted(_POLICIES))
        raise ValueError(
            f"unknown history policy {name!r} (known: {known})"
        ) from None
    return factory(alpha, window)
