"""Time-series snapshots on a sim-time cadence.

The paper's operators watch congestion windows *in flight* (Section IV
samples every minute with ``ss``; Figures 7/8 plot learned windows over
time).  A :class:`Timeline` is the store for that view: periodic
``(time, source, series, value)`` points — per-destination learned
windows, installed-route counts, active-fault counts — recorded by a
sampler (:class:`~repro.cdn.monitors.TimelineSampler`) and exportable as
long-format CSV.

The store is a :class:`~repro.obs.bounded.BoundedLog` of immutable,
id-free points; :class:`PointLog` holds the readers it shares with
:class:`~repro.obs.tsdb.WindowedStore`.
"""

from __future__ import annotations

from typing import TypeVar

from repro.obs.bounded import BoundedLog
from repro.records import Frozen


class TimelinePoint(Frozen):
    """One sampled value of one series on one source."""

    __slots__ = ("time", "source", "series", "value")

    time: float
    source: str
    series: str
    value: float

    def __init__(self, time: float, source: str, series: str, value: float) -> None:
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "value", value)


P = TypeVar("P", bound=TimelinePoint)


class PointLog(BoundedLog[P]):
    """The readers the timeline and the tsdb share over their points."""

    __slots__ = ()

    def points(self) -> list[P]:
        """Retained points in recorded order."""
        return list(self._items)

    def series_names(self) -> list[str]:
        """Distinct ``source:series`` names with at least one point, sorted."""
        return sorted({f"{p.source}:{p.series}" for p in self._items})


class Timeline(PointLog[TimelinePoint]):
    """All timeline points of one run, bounded drop-newest."""

    def record(self, time: float, source: str, series: str, value: float) -> None:
        """Append one sample (counted but not stored past capacity)."""
        if self._claim() is not None:
            self._keep(TimelinePoint(time, source, series, float(value)))

    def __repr__(self) -> str:
        return (
            f"<Timeline retained={len(self)}/{self.capacity} "
            f"recorded={self._recorded} series={len(self.series_names())}>"
        )
