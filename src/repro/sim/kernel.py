"""The simulation kernel.

A :class:`Simulator` owns the clock and the event heap.  All other
components (links, sockets, agents) hold a reference to the simulator and
interact with time exclusively through :meth:`Simulator.schedule` — nothing
in the reproduction reads a wall clock, so a run is a pure function of its
seed and parameters.  The clock is the plain slot :attr:`Simulator.now`:
every packet reads it, and a slot read enters no frame where a property
would.  Only this module writes it; lint rule SIM001 flags a write from
anywhere else.

The heap holds *key-based entries* — plain ``(time, seq, event, callback,
args)`` tuples compared element-wise in C on ``(time, seq)`` (``seq`` is
unique, so comparison never reaches the payload slots) — rather than
:class:`~repro.sim.events.Event` objects, whose ``__lt__`` would run per
comparison.  The :meth:`Simulator.run` loop is the hottest code in the
repository: every packet, timer, probe and agent tick passes through it,
peeking at ``heap[0]`` and dispatching ``callback(*args)`` straight from
the entry.  The ``event`` slot is ``None`` for handle-free timers
(:meth:`Simulator.schedule_fire`), which skip the ``Event`` allocation and
the cancellation check.  Firing order is exactly ``(time, seq)`` with
``seq`` assigned per schedule call.

Cancellation is lazy — a cancelled event's entry stays in the heap as a
*tombstone* and is skipped when popped — but the simulator counts
tombstones and compacts the heap in place once they pass
:attr:`Simulator.COMPACT_MIN_TOMBSTONES` **and** outnumber half the heap,
so a cancel-heavy workload cannot grow it without bound.  Compaction
rebuilds the same list object (``heap[:] = ...``), so the run loop's
reference to the heap stays valid across a mid-callback cancel burst.

CPython's automatic cyclic collector is off inside :meth:`Simulator.run`:
the call turns it off if it was on and back on in its ``finally``, so a
collector already off stays off.  The run loop makes no garbage cycles —
packets, segments and heap entries die by reference count, and
``tests/experiments/test_gc_census.py`` holds that for the probe, chaos
and hybrid studies and a two-host testbed — so a collection there would
only re-walk the in-flight set.
What does form cycles is a finished simulation (hosts, links and sockets
point back at their simulator).  The serial task path of
:mod:`repro.parallel.executor` collects at each task boundary; any other
simulation dropped between runs goes to the collector, on again there.
"""

from __future__ import annotations

import gc
from collections.abc import Callable
from heapq import heapify, heappop, heappush
from math import inf, isnan
from typing import Any

from repro.obs.instrument import instrumentation_for_new_simulator
from repro.sim.errors import SchedulingError
from repro.sim.events import Event

#: A heap entry: ``(time, seq, event-or-None, callback, args)``.
Entry = tuple[float, int, "Event | None", Callable[..., None], tuple[Any, ...]]

#: ``Event.__new__`` bound once: the schedule fast paths allocate the
#: handle and fill its slots inline, skipping the ``__init__`` frame —
#: worth ~150 ns per event on the scheduling hot path.
_new_event = Event.__new__


class Simulator:
    """Discrete-event simulator with a float-seconds clock."""

    # Dict-free instances: ``now``/``_seq``/``_heap`` are touched once
    # or more per scheduled event, and slot access beats a dict lookup.
    # ``now`` is the clock itself, not a property over a private slot
    # (see the module docstring).
    __slots__ = (
        "now", "_heap", "_tombstones", "_seq", "_running", "_events_processed", "obs",
    )

    #: Compact only once this many tombstones have accumulated — below
    #: this the rebuild costs more than the dead entries do.
    COMPACT_MIN_TOMBSTONES = 64

    def __init__(self) -> None:
        #: Current simulation time in seconds.  Read-only outside the kernel.
        self.now = 0.0
        #: The entry heap.  Compaction rebuilds it *in place*, so its
        #: list identity never changes.
        self._heap: list[Entry] = []
        #: Cancelled-but-not-yet-popped entries still sitting in the heap.
        self._tombstones = 0
        self._seq = 0
        self._running = False
        self._events_processed = 0
        #: Metrics registry + trace log for the components built on this
        #: simulator (the kernel itself records nothing).  Inside a
        #: ``repro.obs.instrument.capture()`` block this is the shared
        #: aggregate; otherwise private per run.
        self.obs = instrumentation_for_new_simulator()

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events awaiting execution."""
        return len(self._heap) - self._tombstones

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns an :class:`Event` handle whose ``cancel()`` prevents the
        callback from firing.  ``delay`` must be finite and non-negative:
        an event at +inf would move the clock to +inf when it fires, and
        every later event with it.
        """
        if not 0 <= delay < inf:  # also false for NaN, which `delay < 0` lets through
            raise SchedulingError(f"cannot schedule after a delay of {delay}s")
        seq = self._seq
        self._seq = seq + 1
        time = self.now + delay
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.fired = False
        heappush(self._heap, (time, seq, event, callback, args))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``,
        which must be finite and not before now."""
        if not self.now <= time < inf:
            raise SchedulingError(
                f"cannot schedule at t={time}: now={self.now:.6f}, and the time must be finite"
            )
        seq = self._seq
        self._seq = seq + 1
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.fired = False
        heappush(self._heap, (time, seq, event, callback, args))
        return event

    def schedule_fire(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule a fire-and-forget ``callback(*args)`` at absolute ``time``.

        The handle-free twin of :meth:`schedule_at` (one ``seq`` is
        consumed per call, whichever path scheduled it), but no
        :class:`Event` is allocated, so the timer cannot be cancelled.
        Use for hot-path timers no caller ever cancels — a link's one
        arrival timer per packet, set when the link accepts it.
        """
        if not time >= self.now:
            raise SchedulingError(f"cannot schedule at t={time} before now={self.now:.6f}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, None, callback, args))

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event.  Idempotent.

        Cancelling an event that already fired (was popped and executed)
        is a no-op: the handle is stale, and decrementing the live count
        for it would make ``pending_events`` drift below the true count.
        """
        if event.cancelled or event.fired:
            return
        event.cancel()
        # Its entry stays behind as a tombstone; past the threshold the
        # heap is rebuilt without them, in place.
        tombstones = self._tombstones + 1
        heap = self._heap
        if tombstones >= self.COMPACT_MIN_TOMBSTONES and tombstones * 2 >= len(heap):
            heap[:] = [entry for entry in heap if entry[2] is None or not entry[2].cancelled]
            heapify(heap)
            tombstones = 0
        self._tombstones = tombstones

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Execute events in time order.

        Runs until the queue drains, until the clock would pass ``until``
        (the clock is then advanced to exactly ``until``), or until
        ``max_events`` events have been executed in this call — whichever
        comes first.  Returns the simulation time at exit.

        The clock is only fast-forwarded to ``until`` when no live event
        at or before ``until`` remains: a run that stops on ``max_events``
        leaves the clock at the last executed event, so a later ``run()``
        resumes the still-queued earlier events without the clock ever
        moving backwards.
        """
        if self._running:
            raise SchedulingError("run() called re-entrantly from an event handler")
        if until is not None and isnan(until):
            raise SchedulingError("cannot run until t=nan")
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        self._running = True
        executed = 0
        # No cyclic garbage is made in here (see the module docstring):
        # the collector stays off for the call.
        collecting = gc.isenabled()
        if collecting:
            gc.disable()
        # Hot loop: it works directly on the entry heap — one
        # ``heap[0]`` peek and one C-level heappop per event, dispatching
        # ``callback(*args)`` straight from the entry tuple.  Tombstones
        # (cancelled handles) are popped and uncounted inline; compaction
        # (triggered from cancel()) rebuilds the heap *in place*, so the
        # ``heap`` local stays coherent across mid-callback cancel bursts.
        # The processed count is added once per run() call.
        heap = self._heap
        limit = -1 if max_events is None else max_events
        # Without a bound, no event is past it; the clock is then never
        # fast-forwarded (below).
        bound = inf if until is None else until
        try:
            # Peek before popping so an event past the bound stays queued
            # for the next run() call.
            while heap:
                if executed == limit:
                    break
                entry = heap[0]
                event = entry[2]
                if event is not None and event.cancelled:
                    heappop(heap)
                    self._tombstones -= 1
                    continue
                time = entry[0]
                if time > bound:
                    break
                heappop(heap)
                if event is not None:
                    event.fired = True
                self.now = time
                entry[3](*entry[4])
                executed += 1
        finally:
            if collecting:
                gc.enable()
            self._running = False
            self._events_processed += executed
        if until is not None and self.now < until:
            # Fast-forward only when nothing live remains at or before
            # the bound — a max_events stop with earlier events still
            # queued must leave the clock where it is, or the next run()
            # would execute those events with ``now`` past them.
            next_time = self._next_live_time()
            if next_time is None or next_time > until:
                self.now = until
        return self.now

    def _next_live_time(self) -> float | None:
        """The firing time of the earliest live event (None if none is
        left); tombstones on top of the heap are popped on the way."""
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event is None or not event.cancelled:
                return heap[0][0]
            heappop(heap)
            self._tombstones -= 1
        return None

    def __repr__(self) -> str:
        return (
            f"<Simulator t={self.now:.6f} pending={self.pending_events} "
            f"processed={self._events_processed}>"
        )
