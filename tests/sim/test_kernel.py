"""Unit tests for the simulation kernel."""

import gc

import pytest

from repro.sim.errors import SchedulingError
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self, sim):
        fired = []
        for tag in range(20):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == list(range(20))

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(4.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.25]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("method", ["schedule", "schedule_fire", "schedule_at"])
    def test_nan_time_rejected(self, sim, method):
        """NaN passes a `< 0` check; let in, it fires first and sets now=nan."""
        fired = []
        sim.schedule(1.0, fired.append, "a")
        with pytest.raises(SchedulingError):
            getattr(sim, method)(float("nan"), fired.append, "nan")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 1.0

    @pytest.mark.parametrize("method", ["schedule", "schedule_at"])
    def test_infinite_time_rejected(self, sim, method):
        """+inf passes a NaN-safe check; let in, it fires last and carries
        the clock, and every event scheduled after it, to +inf."""
        fired = []
        sim.schedule(1.0, fired.append, "a")
        with pytest.raises(ValueError):
            getattr(sim, method)(float("inf"), fired.append, "inf")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 1.0

    def test_handlers_can_schedule_more_events(self, sim):
        fired = []

        def chain(n: int) -> None:
            fired.append(n)
            if n < 5:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 1)
        sim.run()
        assert fired == [1, 2, 3, 4, 5]
        assert sim.now == 5.0


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self, sim):
        sim.schedule(10.0, lambda: None)
        end = sim.run(until=3.0)
        assert end == 3.0
        assert sim.now == 3.0
        assert sim.pending_events == 1

    def test_run_until_executes_events_at_bound(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "x")
        sim.run(until=3.0)
        assert fired == ["x"]

    def test_run_resumes_after_until(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "later")
        sim.run(until=1.0)
        assert fired == []
        sim.run(until=10.0)
        assert fired == ["later"]

    def test_max_events_bounds_execution(self, sim):
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4
        assert sim.pending_events == 6

    def test_run_until_nan_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SchedulingError):
            sim.run(until=float("nan"))
        assert sim.now == 0.0
        assert sim.pending_events == 1

    def test_negative_max_events_rejected(self, sim):
        """-1 is the run loop's "unbounded" sentinel, so it must not get in."""
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.run(max_events=-1)
        assert sim.events_processed == 0
        sim.run(max_events=0)
        assert sim.events_processed == 0

    def test_reentrant_run_rejected(self, sim):
        def nested() -> None:
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SchedulingError):
            sim.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent_on_kernel(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        other = sim.schedule(2.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert sim.pending_events == 1
        sim.cancel(other)
        assert sim.pending_events == 0

    def test_events_processed_counts_only_fired(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(handle)
        sim.run()
        assert sim.events_processed == 1

    def test_cancel_after_fire_is_a_noop(self, sim):
        """A stale handle must not corrupt the live-event count."""
        fired = []
        handle = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run(until=1.5)
        assert fired == ["a"]
        sim.cancel(handle)  # already fired: must not touch the queue
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["a", "b"]

    def test_cancel_after_fire_not_counted_as_cancellation(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(handle)
        assert not handle.cancelled
        assert sim._tombstones == 0

    def test_cancel_many_fired_handles_keeps_pending_exact(self, sim):
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        sim.schedule(10.0, lambda: None)
        sim.run(until=6.0)
        for handle in handles:
            sim.cancel(handle)
            sim.cancel(handle)
        assert sim.pending_events == 1


class TestMaxEventsClockJump:
    """Regression: run(until=, max_events=) must not fast-forward the
    clock past live events left behind by a max_events stop."""

    def test_clock_stays_at_last_event_on_max_events_stop(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        end = sim.run(until=10.0, max_events=2)
        assert end == 2.0
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_interleaved_bounded_runs_never_move_clock_backwards(self, sim):
        fired = []

        def record(tag: int) -> None:
            fired.append((sim.now, tag))

        for i in range(20):
            sim.schedule_at(float(i + 1), record, i)
        observed = []
        while sim.pending_events:
            sim.run(until=100.0, max_events=3)
            observed.append(sim.now)
        assert observed == sorted(observed)
        # Every event fired at its own time, never "in the past".
        assert fired == [(float(i + 1), i) for i in range(20)]
        # Queue drained and nothing remained before the bound.
        assert sim.now == 100.0

    def test_events_fire_at_or_after_now_across_bounded_runs(self, sim):
        """No event may execute with event.time < the clock it sees."""
        violations = []

        def check(expected: float) -> None:
            if sim.now != expected:
                violations.append((sim.now, expected))

        for i in range(50):
            t = 0.25 * (i + 1)
            sim.schedule_at(t, check, t)
        while sim.pending_events:
            sim.run(until=1000.0, max_events=7)
        assert violations == []

    def test_reschedule_between_bounded_runs_is_valid(self, sim):
        """schedule_at against the un-jumped clock must not raise."""
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run(until=50.0, max_events=1)
        assert sim.now == 1.0
        # Before the fix now was already 50.0 and this raised.
        sim.schedule_at(1.5, lambda: None)
        sim.run(until=50.0)
        assert sim.now == 50.0
        assert sim.pending_events == 0

    def test_fast_forward_still_happens_when_queue_is_later(self, sim):
        sim.schedule_at(75.0, lambda: None)
        end = sim.run(until=50.0, max_events=10)
        assert end == 50.0
        assert sim.pending_events == 1

    def test_fast_forward_when_stop_drains_exactly_at_max_events(self, sim):
        """max_events stop with nothing live before the bound still jumps."""
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(90.0, lambda: None)
        end = sim.run(until=10.0, max_events=1)
        assert end == 10.0


class TestScheduleFire:
    def test_fire_and_forget_runs_in_order_with_handles(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "handle-2")
        sim.schedule_fire(1.0, fired.append, "fire-1")
        sim.schedule_fire(2.0, fired.append, "fire-2")
        sim.schedule(2.0, fired.append, "handle-2b")
        sim.run()
        assert fired == ["fire-1", "handle-2", "fire-2", "handle-2b"]

    def test_fire_counts_as_pending_and_processed(self, sim):
        sim.schedule_fire(1.0, lambda: None)
        assert sim.pending_events == 1
        sim.run()
        assert sim.events_processed == 1
        assert sim.pending_events == 0

    def test_time_is_absolute(self, sim):
        fired = []
        sim.schedule(2.0, lambda: sim.schedule_fire(3.0, fired.append, sim.now))
        sim.run()
        assert fired == [2.0]
        assert sim.now == 3.0

    def test_negative_delay_rejected(self, sim):
        from repro.sim.errors import SchedulingError

        with pytest.raises(SchedulingError):
            sim.schedule_fire(-0.5, lambda: None)

    def test_time_before_now_rejected(self, sim):
        from repro.sim.errors import SchedulingError

        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_fire(4.999, lambda: None)
        sim.schedule_fire(5.0, lambda: None)  # now itself is not the past
        assert sim.pending_events == 1

    def test_fire_consumes_sequence_numbers(self, sim):
        """Interleaving fire/handle paths preserves schedule order."""
        fired = []
        for i in range(10):
            if i % 2:
                sim.schedule(1.0, fired.append, i)
            else:
                sim.schedule_fire(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))


class TestCollector:
    """``run()`` suspends automatic cyclic collection for the call only."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_off_inside_a_callback_and_on_after_run(self, sim):
        gc.enable()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_off_inside_a_bounded_run_too(self, sim):
        gc.enable()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.schedule(5.0, lambda: seen.append(gc.isenabled()))
        sim.run(until=2.0)
        assert seen == [False]
        assert gc.isenabled()

    def test_disabled_before_the_call_stays_disabled(self, sim):
        gc.disable()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert not gc.isenabled()

    def test_restored_when_a_callback_raises(self, sim):
        gc.enable()

        def boom() -> None:
            raise RuntimeError("callback failed")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_rejected_runs_leave_it_untouched(self, sim, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        seen = []

        def nested() -> None:
            # The outer run has it off; the refused inner call must not
            # turn it back on.
            with pytest.raises(SchedulingError):
                sim.run()
            seen.append(gc.isenabled())

        sim.schedule(1.0, nested)
        sim.run()
        assert seen == [False]
        assert gc.isenabled() is enabled
        with pytest.raises(SchedulingError):
            sim.run(until=float("nan"))
        assert gc.isenabled() is enabled
