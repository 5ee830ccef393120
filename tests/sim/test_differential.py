"""Differential test: the kernel's event heap vs the original heapq queue.

The pre-rewrite queue — a plain ``heapq`` of :class:`Event` objects with
``__lt__`` ordering and a live counter — is kept here as a test oracle.
Randomized schedule/cancel/fire traces (including cancel-heavy mixes and
same-timestamp bursts) are run through the oracle and through the path a
simulation actually takes: :meth:`Simulator.schedule` and
:meth:`Simulator.schedule_fire` into the kernel's entry heap,
:meth:`Simulator.cancel`, and :meth:`Simulator.run` dispatching one event
at a time.  Firing order, the clock and the live-event count must match
step for step.  This is what "the rewrite must preserve the exact
``(time, seq)`` firing order" means operationally.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.sim.events import Event
from repro.sim.kernel import Simulator


class OracleQueue:
    """The original heap-of-events queue, verbatim semantics."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, event)
        self._live += 1

    def pop(self) -> Event:
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if event.cancelled:
                continue
            event.fired = True
            self._live -= 1
            return event
        raise IndexError("pop from empty event queue")

    def peek_time(self) -> float:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            raise IndexError("peek on empty event queue")
        return self._heap[0].time

    def note_cancelled(self) -> None:
        if self._live > 0:
            self._live -= 1


class _Pair:
    """The oracle and a simulator, fed the same schedule calls."""

    def __init__(self) -> None:
        self.oracle = OracleQueue()
        self.sim = Simulator()
        #: Index i is the same logical event in both; the simulator's
        #: handle is None for a handle-free ``schedule_fire`` entry.
        self.handles: list[tuple[Event, Event | None]] = []
        self.popped_oracle: list[tuple[float, int]] = []
        self.fired: list[tuple[float, int]] = []

    def schedule(self, delay: float, handle_free: bool = False) -> None:
        seq = len(self.handles)
        event = Event(self.sim.now + delay, seq, lambda: None)
        self.oracle.push(event)
        if handle_free:
            self.sim.schedule_fire(self.sim.now + delay, self._record, seq)
            self.handles.append((event, None))
        else:
            self.handles.append((event, self.sim.schedule(delay, self._record, seq)))

    def _record(self, seq: int) -> None:
        self.fired.append((self.sim.now, seq))

    def cancel(self, index: int) -> None:
        o_event, s_event = self.handles[index]
        if s_event is None:
            return  # a handle-free entry cannot be cancelled
        assert o_event.cancelled == s_event.cancelled
        assert o_event.fired == s_event.fired
        if not o_event.cancelled and not o_event.fired:
            o_event.cancel()
            self.oracle.note_cancelled()
            self.sim.cancel(s_event)

    def fire_one(self) -> None:
        if len(self.oracle):
            self.popped_oracle.append(_key(self.oracle.pop()))
        if self.sim.pending_events:
            self.sim.run(max_events=1)

    def check(self) -> None:
        assert len(self.oracle) == self.sim.pending_events
        if len(self.oracle):
            assert self.oracle.peek_time() == self.sim._next_live_time()
        assert self.popped_oracle == self.fired
        if self.fired:
            assert self.sim.now == self.fired[-1][0]


def _run_trace(
    seed: int,
    steps: int,
    cancel_weight: float,
    burst_weight: float,
) -> None:
    """Drive the oracle and the simulator through one random trace."""
    rng = random.Random(seed)
    pair = _Pair()
    for _ in range(steps):
        roll = rng.random()
        if roll < burst_weight:
            # Same-timestamp burst: ordering must fall to seq.
            delay = round(rng.uniform(0, 50), 1)
            for _ in range(rng.randint(2, 8)):
                pair.schedule(delay, handle_free=rng.random() < 0.3)
        elif roll < burst_weight + cancel_weight:
            if pair.handles:
                pair.cancel(rng.randrange(len(pair.handles)))
        elif roll < burst_weight + cancel_weight + 0.25:
            pair.fire_one()
        else:
            pair.schedule(round(rng.uniform(0, 100), 3), handle_free=rng.random() < 0.3)
        pair.check()

    # Drain both completely; total firing order must be identical.
    while len(pair.oracle):
        pair.popped_oracle.append(_key(pair.oracle.pop()))
    pair.sim.run()
    assert pair.popped_oracle == pair.fired
    assert len(pair.oracle) == pair.sim.pending_events == 0


def _key(event: Event) -> tuple[float, int]:
    return (event.time, event.seq)


@pytest.mark.parametrize("seed", range(10))
def test_differential_mixed_trace(seed: int) -> None:
    _run_trace(seed, steps=400, cancel_weight=0.2, burst_weight=0.1)


@pytest.mark.parametrize("seed", range(10, 16))
def test_differential_cancel_heavy(seed: int) -> None:
    """RTO-rearm-style traces: most scheduled events die before firing.

    Cancel weight is high enough that tombstone compaction triggers many
    times over the trace, exercising the in-place rebuild path."""
    _run_trace(seed, steps=1200, cancel_weight=0.55, burst_weight=0.05)


@pytest.mark.parametrize("seed", range(16, 20))
def test_differential_same_timestamp_bursts(seed: int) -> None:
    _run_trace(seed, steps=500, cancel_weight=0.1, burst_weight=0.45)


def test_differential_pop_interleaved_with_compaction() -> None:
    """Deterministic worst case: cancel a majority, then fire through the
    compacted heap while the oracle still lazily skips its tombstones."""
    pair = _Pair()
    for seq in range(500):
        pair.schedule(float(seq % 7))
    for index in list(range(0, 500, 3)) + list(range(1, 500, 5)):
        pair.cancel(index)
    while len(pair.oracle):
        pair.fire_one()
        pair.check()
    assert pair.sim.pending_events == 0
