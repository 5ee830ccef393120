"""Periodic processes.

Riptide itself, the ``ss`` samplers, and the workload generators are all
"every N seconds" loops.  :class:`PeriodicProcess` packages that pattern:
a tick callback re-scheduled at a fixed interval until stopped.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.sim.errors import SchedulingError
from repro.sim.events import Event
from repro.sim.kernel import Simulator


class PeriodicProcess:
    """Invoke a callback every ``interval`` seconds of simulated time.

    The first tick fires ``initial_delay`` seconds after :meth:`start`
    (default: one full interval).  The callback may call :meth:`stop` to
    terminate the loop from inside a tick.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        name: str = "periodic",
    ) -> None:
        if not interval > 0:
            raise SchedulingError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._interval = float(interval)
        self._callback = callback
        self._name = name
        self._pending: Event | None = None
        self._jitter: Callable[[], float] | None = None

    @property
    def running(self) -> bool:
        return self._pending is not None

    def start(self, initial_delay: float | None = None) -> None:
        """Begin ticking.  No-op if already running."""
        if self._pending is not None:
            return
        delay = self._interval if initial_delay is None else initial_delay
        self._pending = self._sim.schedule(delay, self._tick)

    def stop(self) -> None:
        """Stop ticking.  Safe to call from inside the callback."""
        if self._pending is not None:
            self._sim.cancel(self._pending)
            self._pending = None

    def set_jitter(self, jitter: Callable[[], float] | None) -> None:
        """Add ``jitter()`` seconds to every subsequent re-arm delay.

        Models a loaded host whose "every N seconds" loop drifts (the
        fault-injection poll-jitter schedule).  The callable is invoked
        once per tick; negative returns are clamped so the loop never
        schedules into the past.  Pass ``None`` to restore exact ticks.
        """
        self._jitter = jitter

    def _tick(self) -> None:
        # Re-arm before invoking the callback so that a callback calling
        # stop() cancels the *next* tick rather than racing with it.
        delay = self._interval
        if self._jitter is not None:
            delay = max(0.0, delay + self._jitter())
        self._pending = self._sim.schedule(delay, self._tick)
        self._callback()

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"<PeriodicProcess {self._name!r} every {self._interval}s {state}>"
