"""Windowed time-series store: aligned sim-time windows over raw samples.

The flow/span/timeline stores answer *forensic* questions after a run;
the SLO engine (:mod:`repro.obs.slo`) needs the *monitoring* shape of
the same data — "what was the p90 / ratio / rate of signal X over the
window ending now?".  :class:`WindowedStore` is the bridge: a
:class:`~repro.obs.bounded.BoundedLog` of samples (the
:class:`~repro.obs.timeline.Timeline` point shape and readers) with
*window-aligned derivations* computed on read.

Windows are aligned to simulated time zero: sample ``t`` falls in window
``floor(t / window)`` for whatever width the reader chooses.  Aggregates
are always recomputed from the retained samples — never maintained
incrementally — so a parallel merge (which concatenates per-task sample
runs in task order) derives the exact floats a serial run would have.

Within one ``(source, series)`` key samples are kept in append order,
and append order must be time order: a sample older than its key's last
one raises.  Every producer in the tree is single-writer per key (sources
are arm-qualified), so it holds by construction; the window readers
bisect a key's run on it, and ``last``-style derivations are defined on
append order and documented as such.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from repro.obs.metrics import rounded_rank
from repro.obs.timeline import PointLog, TimelinePoint


class TsdbPoint(TimelinePoint):
    """One raw sample of one series on one source."""

    __slots__ = ()

    def window(self, width: float) -> int:
        """The aligned window index this sample falls in."""
        return math.floor(self.time / width)


class WindowedStore(PointLog[TsdbPoint]):
    """Bounded drop-newest sample store with window-aligned readers.

    ``record`` stores the value as given; retained samples are also
    indexed per ``(source, series)`` key, in recorded order.
    """

    __slots__ = ("_by_key",)

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._by_key: dict[tuple[str, str], list[TsdbPoint]] = {}

    def record(self, time: float, source: str, series: str, value: float) -> None:
        """Record one sample (drop-newest past capacity, still counted)."""
        if self._claim() is not None:
            self._keep(TsdbPoint(time=time, source=source, series=series, value=value))

    def _keep(self, item: TsdbPoint) -> None:
        key = (item.source, item.series)
        run = self._by_key.setdefault(key, [])
        if run and item.time < run[-1].time:
            raise ValueError(
                f"sample for {key} at t={item.time!r} is older than its last at "
                f"t={run[-1].time!r}: per-key samples must arrive in time order"
            )
        super()._keep(item)
        run.append(item)

    def sources_for(self, series: str) -> list[str]:
        """Sorted sources that recorded at least one sample of a series."""
        return sorted(source for source, name in self._by_key if name == series)

    # ------------------------------------------------------------------
    # Window-aligned derivations (window width chosen by the reader)

    @staticmethod
    def window_index(time: float, window: float) -> int:
        """The aligned window index containing a simulated instant."""
        return math.floor(time / window)

    def window_values(
        self, source: str, series: str, index: int, window: float
    ) -> list[float]:
        """Values recorded in one aligned window, in recorded order (a
        fresh list: :meth:`percentile` sorts it).

        A key's run is in time order, so its window indices never fall and
        the window is one slice, found by bisection.
        """
        run = self._by_key.get((source, series))
        if not run:
            return []
        lo = bisect_left(run, index, key=lambda p: p.window(window))
        hi = bisect_right(run, index, lo=lo, key=lambda p: p.window(window))
        return [p.value for p in run[lo:hi]]

    def last(self, source: str, series: str, index: int, window: float) -> float | None:
        """Last recorded value in a window; None when empty."""
        values = self.window_values(source, series, index, window)
        return values[-1] if values else None

    def window_sum(
        self, source: str, series: str, index: int, window: float
    ) -> float | None:
        """Sum of the values in a window; None when empty."""
        values = self.window_values(source, series, index, window)
        return math.fsum(values) if values else None

    def percentile(
        self, source: str, series: str, index: int, window: float, p: float
    ) -> float | None:
        """Percentile ``p`` of a window's values by
        :func:`~repro.obs.metrics.rounded_rank`; None when empty."""
        values = self.window_values(source, series, index, window)
        if not values:
            return None
        values.sort()
        return rounded_rank(values, p)

    def rate(self, source: str, series: str, index: int, window: float) -> float | None:
        """Per-second event rate of a window: sum of samples / width."""
        total = self.window_sum(source, series, index, window)
        if total is None:
            return None
        return total / window

    def sum_ratio(
        self,
        source: str,
        numerator: str,
        denominator: str,
        index: int,
        window: float,
        min_denominator: float = 0.0,
    ) -> float | None:
        """Ratio of two series' window sums on one source.

        None when either series has no samples in the window or the
        denominator sum is below ``min_denominator`` (too little signal
        to judge — mirrors the SafetyGuard's ``MIN_SEGMENTS`` gate).
        """
        den = self.window_sum(source, denominator, index, window)
        if den is None or den <= 0.0 or den < min_denominator:
            return None
        num = self.window_sum(source, numerator, index, window)
        if num is None:
            return None
        return num / den

    def __repr__(self) -> str:
        return (
            f"<WindowedStore retained={len(self)}/{self.capacity} "
            f"series={len(self._by_key)} recorded={self._recorded} "
            f"dropped={self.dropped}>"
        )
