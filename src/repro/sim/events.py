"""Events: the cancellable handles the simulator hands out.

Events are ordered by ``(time, sequence_number)``.  The sequence number is a
monotonically increasing tie-breaker: two events scheduled for the same
instant fire in the order they were scheduled, which keeps simulations
deterministic regardless of heap internals.  The heap itself, its entry
tuples and its tombstones belong to :class:`~repro.sim.kernel.Simulator`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


class Event:
    """A single scheduled callback.

    Instances are handles: holding one allows the owner to :meth:`cancel`
    the event before it fires.  Cancelled events stay in the heap (removal
    from the middle of a heap is O(n)) and are skipped on pop.  ``fired``
    marks an event that was already popped for execution, so a late
    ``cancel()`` on a stale handle cannot corrupt the live-event count.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(self, time: float, seq: int, callback: Callable[..., None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args: tuple[Any, ...] = ()
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.6f} seq={self.seq} {name}{state}>"
