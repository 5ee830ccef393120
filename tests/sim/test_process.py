"""Unit tests for periodic processes."""

import pytest

from repro.sim.errors import SchedulingError
from repro.sim.process import PeriodicProcess


class TestPeriodicProcess:
    def test_ticks_at_fixed_interval(self, sim):
        times = []
        process = PeriodicProcess(sim, 2.0, lambda: times.append(sim.now))
        process.start()
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_initial_delay_overrides_first_tick(self, sim):
        times = []
        process = PeriodicProcess(sim, 5.0, lambda: times.append(sim.now))
        process.start(initial_delay=0.5)
        sim.run(until=11.0)
        assert times == [0.5, 5.5, 10.5]

    def test_zero_initial_delay_ticks_immediately(self, sim):
        times = []
        process = PeriodicProcess(sim, 3.0, lambda: times.append(sim.now))
        process.start(initial_delay=0.0)
        sim.run(until=4.0)
        assert times == [0.0, 3.0]

    def test_stop_halts_ticking(self, sim):
        times = []
        process = PeriodicProcess(sim, 1.0, lambda: times.append(sim.now))
        process.start()
        sim.run(until=2.5)
        process.stop()
        sim.run(until=10.0)
        assert times == [1.0, 2.0]
        assert not process.running

    def test_stop_from_inside_callback(self, sim):
        times = []

        def tick() -> None:
            times.append(sim.now)
            if len(times) == 2:
                process.stop()

        process = PeriodicProcess(sim, 1.0, tick)
        process.start()
        sim.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_start_is_idempotent(self, sim):
        times = []
        process = PeriodicProcess(sim, 1.0, lambda: times.append(sim.now))
        process.start()
        process.start()
        sim.run(until=1.5)
        assert times == [1.0]

    def test_restart_after_stop(self, sim):
        times = []
        process = PeriodicProcess(sim, 1.0, lambda: times.append(sim.now))
        process.start()
        sim.run(until=1.5)
        process.stop()
        process.start()
        sim.run(until=3.0)
        assert times == [1.0, 2.5]

    def test_non_positive_interval_rejected(self, sim):
        with pytest.raises(SchedulingError):
            PeriodicProcess(sim, 0.0, lambda: None)
        with pytest.raises(SchedulingError):
            PeriodicProcess(sim, -1.0, lambda: None)
        with pytest.raises(SchedulingError):
            PeriodicProcess(sim, float("nan"), lambda: None)
