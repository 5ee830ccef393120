"""The host-speed sampler: calibration arithmetic, and a clean start and stop."""

import signal
import time

import pytest

from hostspeed import REFERENCE_SAMPLE_S, SpeedSampler

R = REFERENCE_SAMPLE_S


def _sampler(samples: list[tuple[float, float]]) -> SpeedSampler:
    sampler = SpeedSampler()
    sampler.times = [at for at, _ in samples]
    sampler.durations = [duration for _, duration in samples]
    return sampler


def test_each_stretch_counts_by_the_speed_sampled_at_its_end():
    # Full speed until 1.0, half speed until 2.0, full speed from then on.
    sampler = _sampler([(1.0, R), (2.0, 2 * R), (3.0, R)])
    assert sampler.calibrated(0.5, 3.5) == pytest.approx(0.5 + 0.5 + 1.0 + 0.5)
    # A stretch between two samples takes the speed of the sample that ends it.
    assert sampler.calibrated(1.2, 1.8) == pytest.approx(0.3)
    # The first sample covers what came before it, the last what comes after.
    assert sampler.calibrated(0.0, 0.5) == pytest.approx(0.5)
    assert sampler.calibrated(3.2, 4.2) == pytest.approx(1.0)


def test_a_uniformly_slow_host_reads_the_same_calibrated_time():
    fast = _sampler([(t / 100, R) for t in range(1, 400)])
    # The same work on a host running at 0.8x: 1.25 times the seconds and
    # every sample 1.25 times as long.
    slow = _sampler([(t / 100, 1.25 * R) for t in range(1, 500)])
    assert slow.calibrated(0.0, 5.0) == pytest.approx(fast.calibrated(0.0, 4.0))


def test_without_a_sample_there_is_no_calibrated_time():
    with pytest.raises(RuntimeError):
        SpeedSampler().calibrated(0.0, 1.0)


def test_start_samples_in_the_main_thread_and_stop_puts_everything_back():
    sampler = SpeedSampler()
    sampler.start()
    try:
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline:
            pass
    finally:
        sampler.stop()
    taken = len(sampler.times)
    assert taken >= 5
    assert all(duration > 0 for duration in sampler.durations)
    assert sampler.times == sorted(sampler.times)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(0.03)
    assert len(sampler.times) == taken
