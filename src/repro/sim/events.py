"""Events and the event queue.

Events are ordered by ``(time, sequence_number)``.  The sequence number is a
monotonically increasing tie-breaker: two events scheduled for the same
instant fire in the order they were scheduled, which keeps simulations
deterministic regardless of heap internals.

The queue is an array-backed binary heap of *key-based entries* — plain
``(time, seq, event, callback, args)`` tuples — rather than a heap of
:class:`Event` objects.  Tuple entries are compared element-wise in C on
``(time, seq)`` (``seq`` is unique per simulator, so comparison never
reaches the payload slots), where a heap of ``Event`` objects would call
``Event.__lt__`` per comparison and allocate two key tuples per call.
Carrying ``callback``/``args`` in the entry lets the kernel's run loop
dispatch without touching the ``Event`` handle at all; the ``event`` slot
is ``None`` for handle-free entries (``Simulator.schedule_fire``), the
fast path used by fire-and-forget timers that are never cancelled.

Cancellation stays lazy — a cancelled event's entry remains in the heap as
a *tombstone* and is skipped when popped — but the queue counts tombstones
and compacts the heap in place once they pass
:data:`EventQueue.COMPACT_MIN_TOMBSTONES` **and** outnumber half the heap.
Cancel-heavy workloads (a TCP socket re-arms its RTO on every ACK) would
otherwise grow the heap without bound between pops.  Compaction rebuilds
the same list object (``heap[:] = ...``) so a run loop holding a reference
to the heap stays valid across a mid-callback cancel burst.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import Any

#: A heap entry: ``(time, seq, event-or-None, callback, args)``.  The
#: ``event`` slot is ``None`` for handle-free entries, which cannot be
#: cancelled and therefore need no tombstone check on pop.
Entry = tuple[float, int, "Event | None", Callable[..., None], tuple[Any, ...]]


class Event:
    """A single scheduled callback.

    Instances are handles: holding one allows the owner to :meth:`cancel`
    the event before it fires.  Cancelled events stay in the heap (removal
    from the middle of a heap is O(n)) and are skipped on pop.  ``fired``
    marks an event that was already popped for execution, so a late
    ``cancel()`` on a stale handle cannot corrupt the live-event count.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
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


class EventQueue:
    """An array-backed min-heap of key-ordered entries with lazy
    cancellation and tombstone compaction.

    ``len(queue)`` counts *live* events only: entries in the heap minus
    recorded tombstones.  The kernel schedules into ``_heap`` and its run
    loop pops from it and uncounts ``_tombstones`` directly (both are
    kernel-private, enforced by lint rule SIM001); cancellation and the
    clock's fast-forward go through the methods below.
    """

    #: Compact only once this many tombstones have accumulated — below
    #: this the rebuild costs more than the dead entries do.
    COMPACT_MIN_TOMBSTONES = 64

    __slots__ = ("_heap", "_tombstones")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        #: Cancelled-but-not-yet-popped entries still sitting in the heap.
        self._tombstones = 0

    def __len__(self) -> int:
        return len(self._heap) - self._tombstones

    def __bool__(self) -> bool:
        return len(self._heap) > self._tombstones

    def peek_time(self) -> float:
        """Return the firing time of the earliest live event.

        Raises :class:`IndexError` when no live events remain.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[2]
            if event is not None and event.cancelled:
                heapq.heappop(heap)
                self._tombstones -= 1
                continue
            return head[0]
        raise IndexError("peek on empty event queue")

    def note_cancelled(self) -> None:
        """Record that one live event in the heap was cancelled.

        Called by the kernel so ``len(queue)`` stays an accurate count of
        events that will actually fire.  When tombstones pass the
        compaction threshold *and* make up at least half the heap, the
        heap is rebuilt in place without them — rebinding is avoided so a
        run loop holding the heap list stays coherent.
        """
        tombstones = self._tombstones + 1
        heap = self._heap
        if (
            tombstones >= self.COMPACT_MIN_TOMBSTONES
            and tombstones * 2 >= len(heap)
        ):
            heap[:] = [
                entry
                for entry in heap
                if entry[2] is None or not entry[2].cancelled
            ]
            heapq.heapify(heap)
            self._tombstones = 0
        else:
            self._tombstones = tombstones

    @property
    def tombstones(self) -> int:
        """Cancelled entries currently awaiting compaction (diagnostic)."""
        return self._tombstones
