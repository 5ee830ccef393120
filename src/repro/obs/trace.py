"""Structured trace of typed events.

Where the metrics registry answers "how many / how large", the trace log
answers "what happened, when, where": each record is one discrete system
event — a route installed, an RTO fired, a connection opened at IW=N —
with its simulation time, its source component, and typed detail fields.

The log is a bounded ring (old events fall off) so long simulations do
not accumulate unbounded state, but *totals per event type* are counted
separately and never truncate — the auditor and the CLI metric readout
rely on those totals.
"""

from __future__ import annotations

import enum
from collections import Counter as TallyCounter
from collections import deque

from repro.records import Frozen


class EventType(enum.Enum):
    """The typed events the reproduction traces."""

    ROUTE_INSTALLED = "route_installed"
    ROUTE_WITHDRAWN = "route_withdrawn"
    ROUTE_EXPIRED = "route_expired"
    ADVISORY_START = "advisory_start"
    ADVISORY_END = "advisory_end"
    RTO_FIRED = "rto_fired"
    FAST_RETRANSMIT = "fast_retransmit"
    CONN_OPENED = "conn_opened"
    AUDIT_DIVERGENCE = "audit_divergence"
    FAULT_INJECTED = "fault_injected"
    FAULT_CLEARED = "fault_cleared"
    TOOL_ERROR = "tool_error"
    AGENT_CRASHED = "agent_crashed"
    AGENT_RESTARTED = "agent_restarted"
    GUARD_TRIPPED = "guard_tripped"
    GUARD_RELEASED = "guard_released"
    ALERT_PENDING = "alert_pending"
    ALERT_FIRING = "alert_firing"
    ALERT_RESOLVED = "alert_resolved"


class TraceEvent(Frozen):
    """One recorded event.

    ``details`` is the keyword dict the :meth:`TraceLog.record` call
    built, kept as it is: immutable by convention, nothing may write to
    it after the call returns.
    """

    __slots__ = ("time", "type", "source", "details")

    time: float
    type: EventType
    source: str
    details: dict[str, object]

    def __init__(
        self,
        time: float,
        type: EventType,
        source: str,
        details: dict[str, object] | None = None,
    ) -> None:
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "details", {} if details is None else details)

    def detail(self, key: str, default: object = None) -> object:
        return self.details.get(key, default)

    def format(self) -> str:
        detail_text = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.time:.6f}] {self.type.value} {self.source} {detail_text}".rstrip()


class TraceLog:
    """Bounded ring of :class:`TraceEvent` with untruncated type totals."""

    __slots__ = ("capacity", "_events", "_totals")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._totals: TallyCounter[EventType] = TallyCounter()

    def record(
        self, time: float, type: EventType, source: str, **details: object
    ) -> TraceEvent:
        """Append one event (oldest events fall off past ``capacity``)."""
        event = TraceEvent(time=time, type=type, source=source, details=details)
        self._events.append(event)
        self._totals[type] += 1
        return event

    def merge_from(self, other: "TraceLog") -> None:
        """Append another log's retained events and add its totals.

        Appending respects this ring's capacity (old events fall off),
        which matches what recording the other log's stream directly into
        this one would have retained.
        """
        self._events.extend(other._events)
        self._totals.update(other._totals)

    def events(self) -> list[TraceEvent]:
        """Retained events in recorded order."""
        return list(self._events)

    def totals(self) -> dict[EventType, int]:
        """Total events per type ever recorded (not ring-limited)."""
        return dict(self._totals)

    @property
    def recorded(self) -> int:
        """Total events ever recorded, across all types (not ring-limited)."""
        return sum(self._totals.values())

    @property
    def dropped(self) -> int:
        """Events that fell off the ring (recorded minus retained).

        The per-type totals never truncate, so this is exact; a non-zero
        value means :meth:`events` is a *suffix* of the run, not the
        whole story — ``repro metrics`` warns when that happens.
        """
        return self.recorded - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (
            f"<TraceLog retained={len(self._events)}/{self.capacity} "
            f"recorded={self.recorded} dropped={self.dropped}>"
        )
