"""Unit tests for events and the event queue, driven the way the kernel
drives them: ``Simulator.schedule``/``schedule_fire`` push entries,
``Simulator.cancel`` leaves tombstones, ``run(max_events=1)`` pops one.
"""

import pytest

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator


def _noop() -> None:
    pass


def make_event(time: float, seq: int) -> Event:
    return Event(time, seq, _noop)


class _Fired:
    """A simulator and the ``(time, tag)`` of every callback it fired."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.log: list[tuple[float, object]] = []

    def schedule(self, delay: float, tag: object = None) -> Event:
        return self.sim.schedule(delay, self.record, tag)

    def schedule_fire(self, delay: float, tag: object = None) -> None:
        self.sim.schedule_fire(delay, self.record, tag)

    def record(self, tag: object) -> None:
        self.log.append((self.sim.now, tag))

    def fire_one(self) -> tuple[float, object]:
        self.sim.run(max_events=1)
        return self.log[-1]

    @property
    def queue(self) -> EventQueue:
        return self.sim._queue


class TestEventOrdering:
    def test_orders_by_time(self):
        early, late = make_event(1.0, 5), make_event(2.0, 1)
        assert early < late

    def test_ties_broken_by_sequence(self):
        first, second = make_event(1.0, 1), make_event(1.0, 2)
        assert first < second
        assert not second < first

    def test_repr_mentions_state(self):
        event = make_event(1.0, 1)
        event.cancel()
        assert "cancelled" in repr(event)


class TestEventQueue:
    def test_pop_returns_earliest(self):
        fired = _Fired()
        fired.schedule(2.0, "late")
        fired.schedule(1.0, "early")
        assert fired.fire_one() == (1.0, "early")
        assert fired.fire_one() == (2.0, "late")

    def test_same_time_pops_in_schedule_order(self):
        fired = _Fired()
        for tag in range(10):
            fired.schedule(5.0, tag)
        assert [fired.fire_one()[1] for _ in range(10)] == list(range(10))

    def test_len_counts_live_events(self):
        fired = _Fired()
        event = fired.schedule(1.0)
        fired.schedule(2.0)
        assert len(fired.queue) == 2
        fired.sim.cancel(event)
        assert len(fired.queue) == fired.sim.pending_events == 1

    def test_pop_skips_cancelled(self):
        fired = _Fired()
        cancelled = fired.schedule(1.0, "cancelled")
        fired.schedule(2.0, "live")
        fired.sim.cancel(cancelled)
        assert fired.fire_one() == (2.0, "live")
        assert fired.queue.tombstones == 0

    def test_peek_time_skips_cancelled(self):
        fired = _Fired()
        cancelled = fired.schedule(1.0)
        fired.schedule(3.0)
        fired.sim.cancel(cancelled)
        assert fired.queue.peek_time() == 3.0

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().peek_time()

    def test_bool_reflects_liveness(self):
        fired = _Fired()
        assert not fired.queue
        event = fired.schedule(1.0)
        assert fired.queue
        fired.sim.cancel(event)
        assert not fired.queue

    def test_cancel_is_idempotent(self):
        event = make_event(1.0, 1)
        event.cancel()
        event.cancel()
        assert event.cancelled


class TestHandleFreeEntries:
    def test_schedule_fire_entry_fires_without_a_handle(self):
        fired = _Fired()
        fired.schedule_fire(1.0, "timer")
        assert len(fired.queue) == 1
        assert fired.fire_one() == (1.0, "timer")
        assert not fired.queue

    def test_entries_and_events_interleave_by_key(self):
        fired = _Fired()
        fired.schedule(2.0, "event")
        fired.schedule_fire(1.0, "first entry")
        fired.schedule_fire(2.0, "second entry")
        assert fired.queue.peek_time() == 1.0
        assert [fired.fire_one()[1] for _ in range(3)] == [
            "first entry", "event", "second entry",
        ]


class TestTombstoneCompaction:
    def _fill(self, fired: _Fired, count: int) -> list[Event]:
        return [fired.schedule(float(i + 1), i) for i in range(count)]

    def test_compaction_evicts_cancelled_entries(self):
        fired = _Fired()
        events = self._fill(fired, 200)
        # Cancel enough to cross both thresholds (>= 64 tombstones and
        # tombstones making up >= half the heap): compaction fires at the
        # 100th cancel (100 * 2 >= 200), leaving the 50 later cancels as
        # resident tombstones below the minimum.
        for event in events[:150]:
            fired.sim.cancel(event)
        assert fired.queue.tombstones == 50
        assert len(fired.sim._qheap) == 100
        assert len(fired.queue) == 50

    def test_no_compaction_below_minimum(self):
        fired = _Fired()
        events = self._fill(fired, 40)
        for event in events[:30]:
            fired.sim.cancel(event)
        # 30 < COMPACT_MIN_TOMBSTONES: tombstones stay resident.
        assert fired.queue.tombstones == 30
        assert len(fired.sim._qheap) == 40
        assert len(fired.queue) == 10

    def test_pop_order_preserved_across_compaction(self):
        fired = _Fired()
        events = self._fill(fired, 300)
        for event in events[::2]:
            fired.sim.cancel(event)
        order = [fired.fire_one()[1] for _ in range(len(fired.queue))]
        assert order == list(range(1, 300, 2))

    def test_compaction_keeps_handle_free_entries(self):
        fired = _Fired()
        for i in range(100):
            fired.schedule_fire(float(i), i)
        for event in self._fill(fired, 100):
            fired.sim.cancel(event)
        assert len(fired.queue) == 100
        assert fired.queue.tombstones == 0
