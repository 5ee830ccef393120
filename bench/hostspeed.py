"""How fast the host runs while a repeat runs, and timings corrected for it.

The sizing host (2 shared cores) runs the same Python code at speeds that
lie 20-50% apart from one spell to the next, in spells of a fraction of a
second to a minute.  CPU time tracks wall time through them, so the
process is slowed, not descheduled, and no clock of its own can tell.  A
run's median over 3-7 repeats of raw wall time therefore spreads by 5-30%
across ten runs of the same code, and two sets of runs drift by up to 14%.

``SpeedSampler`` times a fixed piece of pure-Python work every 10 ms while
the repeat runs.  It does so from a ``SIGALRM`` handler, which Python runs
in the main thread between two bytecodes of the workload: the child stays
single-threaded, and the sample is taken in the same spell as the work
around it.  ``calibrated(start, end)`` then turns the host seconds between
two clock readings into seconds at the reference speed: each stretch
between two samples counts in proportion to the speed measured at its end.
Twelve fresh-process repeats of one workload that range over 20-60% in raw
wall time range over 10-18% calibrated (interquartile 5-7%, against 5-19%);
run medians then spread by 2-6% and sets of runs agree within 2%.

The samples cost about 2% of a repeat, the same on every commit.
"""

from __future__ import annotations

import signal
import time
from collections.abc import Callable
from types import FrameType

#: Seconds between two samples.
SAMPLE_INTERVAL_S = 0.01

#: Iterations of the reference loop in one sample (0.15-0.3 ms).
REFERENCE_ITERATIONS = 2000

#: What one sample takes on the sizing host at its usual speed.  It is a
#: scale only: it makes calibrated seconds read like wall seconds on that
#: host, and no comparison between two commits depends on it.
REFERENCE_SAMPLE_S = 1.9e-4


def reference_work() -> None:
    """The fixed work a sample times: dict stores, tuple builds, integer adds."""
    table: dict[int, tuple[int, int]] = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        table[i & 0xFF] = (i, total)
        total += len(table)


class SpeedSampler:
    """Samples of the host's speed over the life of one child process."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        #: Clock reading at the start of each sample, and how long it took.
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, signum: int = 0, frame: FrameType | None = None) -> None:
        started = self.clock()
        reference_work()
        self.durations.append(self.clock() - started)
        self.times.append(started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrated(self, start: float, end: float) -> float:
        """Host seconds from ``start`` to ``end``, rescaled to the reference speed.

        A sample's speed applies to the stretch since the sample before
        it; the first sample also covers what came before it (interpreter
        start, when ``start`` is the parent's clock reading) and the last
        one what comes after.
        """
        if not self.times:
            raise RuntimeError("no speed sample was taken")
        work = 0.0
        previous = start
        duration = self.durations[0]
        for at, duration in zip(self.times, self.durations):
            if at <= start:
                continue
            if at >= end:
                break
            work += (at - previous) / duration
            previous = at
        return (work + (end - previous) / duration) * REFERENCE_SAMPLE_S
