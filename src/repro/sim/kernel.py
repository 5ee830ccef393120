"""The simulation kernel.

A :class:`Simulator` owns the clock and the event queue.  All other
components (links, sockets, agents) hold a reference to the simulator and
interact with time exclusively through :meth:`Simulator.schedule` — nothing
in the reproduction reads a wall clock, so a run is a pure function of its
seed and parameters.

The :meth:`Simulator.run` loop is the hottest code in the repository: every
packet, timer, probe and agent tick passes through it.  It therefore works
directly on the queue's heap entries — plain ``(time, seq, event, callback,
args)`` tuples ordered by C-level tuple comparison — peeking at ``heap[0]``
and dispatching from the entry without intermediate method calls or
:class:`~repro.sim.events.Event` attribute loads.  Handle-free timers
(:meth:`schedule_fire`) skip the ``Event`` allocation entirely.  Firing
order is exactly ``(time, seq)`` with ``seq`` assigned per schedule call,
so the rewrite is bit-identical to the previous heap-of-events kernel.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heappop, heappush
from math import isnan
from typing import Any

from repro.obs.instrument import instrumentation_for_new_simulator
from repro.sim.errors import SchedulingError
from repro.sim.events import Event, EventQueue

#: ``Event.__new__`` bound once: the schedule fast paths allocate the
#: handle and fill its slots inline, skipping the ``__init__`` frame —
#: worth ~150 ns per event on the scheduling hot path.
_new_event = Event.__new__


class Simulator:
    """Discrete-event simulator with a float-seconds clock."""

    # Dict-free instances: ``_now``/``_seq``/``_qheap`` are touched once
    # or more per scheduled event, and slot access beats a dict lookup.
    __slots__ = (
        "_now", "_queue", "_qheap", "_seq", "_running", "_events_processed",
        "obs", "_obs_enabled", "_m_processed", "_m_cancelled",
        "_g_queue_depth",
    )

    #: The queue-depth gauge is sampled every N executed events (plus once
    #: at loop exit) rather than per event — the gauge is diagnostic, and
    #: per-event updates dominated the inner-loop instrumentation cost.
    QUEUE_DEPTH_SAMPLE_STRIDE = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        #: The queue's entry heap, cached for the schedule fast paths.
        #: Safe to hold across the whole run: compaction rebuilds the
        #: heap *in place*, so the list identity never changes.
        self._qheap = self._queue._heap
        self._seq = 0
        self._running = False
        self._events_processed = 0
        #: Metrics registry + trace log.  Inside a
        #: ``repro.obs.instrument.capture()`` block this is the shared
        #: aggregate; otherwise private per run.
        self.obs = instrumentation_for_new_simulator()
        #: Cached so the run loop and cancel path can skip instrumentation
        #: entirely (a true no-op) when it is disabled for this run.
        self._obs_enabled = self.obs.enabled
        self._m_processed = self.obs.metrics.counter("sim_events_processed")
        self._m_cancelled = self.obs.metrics.counter("sim_events_cancelled")
        self._g_queue_depth = self.obs.metrics.gauge("sim_queue_depth")

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events awaiting execution."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns an :class:`Event` handle whose ``cancel()`` prevents the
        callback from firing.  ``delay`` must be non-negative (not NaN).
        """
        if not delay >= 0:  # also false for NaN, which `delay < 0` lets through
            raise SchedulingError(f"cannot schedule after a delay of {delay}s")
        seq = self._seq
        self._seq = seq + 1
        time = self._now + delay
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.fired = False
        heappush(self._qheap, (time, seq, event, callback, args))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not time >= self._now:
            raise SchedulingError(
                f"cannot schedule at t={time} before now={self._now:.6f}"
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
        heappush(self._qheap, (time, seq, event, callback, args))
        return event

    def schedule_fire(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule a fire-and-forget ``callback(*args)`` with no handle.

        Identical firing order to :meth:`schedule` (one ``seq`` is
        consumed per call, whichever path scheduled it), but no
        :class:`Event` is allocated, so the timer cannot be cancelled.
        Use for hot-path timers no caller ever cancels — a link's
        serialization and propagation timers fire twice per packet and
        never need a handle.
        """
        if not delay >= 0:
            raise SchedulingError(f"cannot schedule after a delay of {delay}s")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._qheap, (self._now + delay, seq, None, callback, args))

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event.  Idempotent.

        Cancelling an event that already fired (was popped and executed)
        is a no-op: the handle is stale, and decrementing the live count
        for it would make ``pending_events`` drift below the true count.
        """
        if event.cancelled or event.fired:
            return
        event.cancel()
        self._queue.note_cancelled()
        if self._obs_enabled:
            self._m_cancelled.inc()

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
        # Hot loop: it works directly on the queue's entry heap — one
        # ``heap[0]`` peek and one C-level heappop per event, dispatching
        # ``callback(*args)`` straight from the entry tuple.  Tombstones
        # (cancelled handles) are popped and uncounted inline; compaction
        # (triggered from cancel()) rebuilds the heap *in place*, so the
        # ``heap`` local stays coherent across mid-callback cancel bursts.
        # The processed counter is batched (one add per run() call instead
        # of one per event) and the queue-depth gauge is sampled every
        # QUEUE_DEPTH_SAMPLE_STRIDE events.  With instrumentation disabled
        # the loop does no metric work at all.
        queue = self._queue
        heap = queue._heap
        limit = -1 if max_events is None else max_events
        obs_enabled = self._obs_enabled
        gauge_set = self._g_queue_depth.set
        stride = self.QUEUE_DEPTH_SAMPLE_STRIDE
        until_gauge = stride
        try:
            if until is None:
                # Unbounded variant (``run()``, the common case):
                # pop straight off the heap with no per-event peek or
                # time comparison.
                while heap:
                    if executed == limit:
                        break
                    entry = heappop(heap)
                    event = entry[2]
                    if event is not None:
                        if event.cancelled:
                            queue._tombstones -= 1
                            continue
                        event.fired = True
                    self._now = entry[0]
                    entry[3](*entry[4])
                    executed += 1
                    if obs_enabled:
                        until_gauge -= 1
                        if not until_gauge:
                            gauge_set(len(queue))
                            until_gauge = stride
            else:
                # Bounded variant: peek before popping so an event past
                # the bound stays queued for the next run() call.
                while heap:
                    if executed == limit:
                        break
                    entry = heap[0]
                    event = entry[2]
                    if event is not None and event.cancelled:
                        heappop(heap)
                        queue._tombstones -= 1
                        continue
                    time = entry[0]
                    if time > until:
                        break
                    heappop(heap)
                    if event is not None:
                        event.fired = True
                    self._now = time
                    entry[3](*entry[4])
                    executed += 1
                    if obs_enabled:
                        until_gauge -= 1
                        if not until_gauge:
                            gauge_set(len(queue))
                            until_gauge = stride
        finally:
            self._running = False
            self._events_processed += executed
            if obs_enabled:
                self._m_processed.inc(executed)
                gauge_set(len(queue))
        if until is not None and self._now < until:
            # Fast-forward only when nothing live remains at or before
            # the bound — a max_events stop with earlier events still
            # queued must leave the clock where it is, or the next run()
            # would execute those events with ``now`` past them.
            try:
                next_time = queue.peek_time()
            except IndexError:
                next_time = None
            if next_time is None or next_time > until:
                self._now = until
        return self._now

    def __repr__(self) -> str:
        return (
            f"<Simulator t={self._now:.6f} pending={self.pending_events} "
            f"processed={self._events_processed}>"
        )
