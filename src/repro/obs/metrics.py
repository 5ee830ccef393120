"""The metrics registry: counters, gauges and histograms.

The paper's evaluation is driven entirely by live measurement (Section IV
samples congestion windows every minute with ``ss``); an operator only
trusts initial-window tuning they can watch in flight.  This module is
the reproduction's equivalent surface: every layer registers counters
(monotonic totals), gauges (last-written values with a high-water mark)
and histograms (sample distributions with percentile readout) in one
:class:`MetricsRegistry`, keyed by ``(name, labels)``.

Instruments are cheap by construction — a counter increment is one
attribute add on a cached handle — so they can sit on hot paths (one per
simulated event, one per transmitted packet) without distorting the
simulation's performance profile.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from typing import TypeVar

from repro.records import Frozen

_T = TypeVar("_T")

#: Canonical form of a label set: sorted ``(key, value)`` pairs.
LabelSet = tuple[tuple[str, str], ...]

#: Percentiles reported by default in tables and exports.
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)


def rounded_rank(ordered: Sequence[_T], p: float) -> _T:
    """Percentile ``p`` of sorted, non-empty ``ordered``: the sample at
    rank ``round(p / 100 * (n - 1))``, clamped to the ends.

    The one rank rule of every percentile here: histograms, the report,
    the tournament, ``PercentilePolicy`` and the SLO engine's windows
    (``WindowedStore.percentile``).  For the samples 1..7, p90 is 6.
    """
    rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def _labelset(labels: Mapping[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_labels(labels: LabelSet) -> str:
    """Render a label set Prometheus-style: ``{k=v,k2=v2}`` or ``""``."""
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet = (), value: int = 0) -> None:
        self.name = name
        self.labels = labels
        self.value = value

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A last-written value with a high-water mark.

    ``written`` says whether anything was set yet: the first write replaces
    the initial ``max_value`` whatever its size.  Code that writes ``value``
    and ``max_value`` directly instead of calling :meth:`set` (a per-packet
    path) keeps ``written`` by the same rule.
    """

    __slots__ = ("name", "labels", "value", "max_value", "written")

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        value: float = 0.0,
        max_value: float = 0.0,
        written: bool = False,
    ) -> None:
        self.name = name
        self.labels = labels
        self.value = value
        self.max_value = max_value
        self.written = written

    def set(self, value: float) -> None:
        self.value = value
        if not self.written or value > self.max_value:
            self.max_value = value
        self.written = True


class Histogram:
    """A sample distribution with exact percentile readout.

    Observation is O(1) append; the sample list is sorted lazily on the
    first ordered read (percentile/min/max/values) after new samples
    arrive, so quantiles stay exact rather than bucket-approximated
    without hot paths paying an O(n) insertion per sample.  A sample is
    its value alone: one float and its list slot.
    """

    __slots__ = ("name", "labels", "_samples", "_dirty")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self._samples: list[float] = []
        self._dirty = False

    def observe(self, value: float) -> None:
        self._samples.append(float(value))
        self._dirty = True

    def _ordered(self) -> list[float]:
        """The samples, sorted in place (re-sorted only when dirty)."""
        if self._dirty:
            self._samples.sort()
            self._dirty = False
        return self._samples

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def sum(self) -> float:
        """The correctly-rounded true sum of all samples.

        ``math.fsum`` is independent of observation *and* merge order,
        so a merged histogram's sum (and mean) is bit-identical to the
        serial run's — a running ``+=`` subtotal would differ in the
        last ulp depending on how samples were grouped across workers.
        """
        return math.fsum(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self.sum / len(self._samples)

    @property
    def min(self) -> float:
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self._ordered()[0]

    @property
    def max(self) -> float:
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self._ordered()[-1]

    def percentile(self, p: float) -> float:
        """Exact percentile ``p`` in [0, 100] (:func:`rounded_rank`)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return rounded_rank(self._ordered(), p)

    def values(self) -> list[float]:
        """All samples, sorted ascending."""
        return list(self._ordered())


class MetricRow(Frozen):
    """One instrument flattened for tables and exports."""

    __slots__ = ("kind", "name", "labels", "fields")

    kind: str
    name: str
    labels: LabelSet
    fields: tuple[tuple[str, float], ...]

    def __init__(
        self,
        kind: str,
        name: str,
        labels: LabelSet,
        fields: tuple[tuple[str, float], ...],
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "fields", fields)


class MetricsRegistry:
    """All instruments of one run, keyed by ``(name, labels)``.

    ``counter()``, ``gauge()`` and ``histogram()`` are get-or-create: the
    first call registers the instrument (so it appears in readouts even
    at zero), later calls return the same handle — callers on hot paths
    should cache the handle rather than re-resolving each time.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelSet], Counter] = {}
        self._gauges: dict[tuple[str, LabelSet], Gauge] = {}
        self._histograms: dict[tuple[str, LabelSet], Histogram] = {}

    # -- get-or-create ---------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _labelset(labels) if labels else ())
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _labelset(labels) if labels else ())
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _labelset(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1])
        return instrument

    # -- merging ---------------------------------------------------------

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Semantics are chosen so that merging per-run registries in run
        order reproduces exactly the registry a serial execution of those
        runs under one shared instrumentation would have built: counters
        add; gauges adopt the other registry's last-written value and the
        combined high-water mark; histograms merge their samples.
        (Histogram ``sum``/``mean`` are ``math.fsum`` over the samples —
        independent of both order and worker grouping — so every derived
        statistic is exact, not just counts, values and percentiles.)
        """
        for key, counter in other._counters.items():
            mine = self._counters.get(key)
            if mine is None:
                self._counters[key] = Counter(counter.name, key[1], counter.value)
            else:
                mine.value += counter.value
        for key, gauge in other._gauges.items():
            mine = self._gauges.get(key)
            if mine is None:
                self._gauges[key] = Gauge(
                    gauge.name, key[1], gauge.value, gauge.max_value, gauge.written
                )
            elif gauge.written:
                mine.value = gauge.value
                if not mine.written or gauge.max_value > mine.max_value:
                    mine.max_value = gauge.max_value
                mine.written = True
        for key, histogram in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                mine = self._histograms[key] = Histogram(histogram.name, key[1])
            mine._samples.extend(histogram._samples)
            mine._dirty = bool(mine._samples)

    # -- readout ---------------------------------------------------------

    def counters(self) -> list[Counter]:
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> list[Gauge]:
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> list[Histogram]:
        return [self._histograms[k] for k in sorted(self._histograms)]

    def counter_value(self, name: str, **labels: str) -> int:
        """Current value of a counter (0 when never registered)."""
        instrument = self._counters.get((name, _labelset(labels)))
        return instrument.value if instrument is not None else 0

    def total(self, name: str) -> int:
        """Sum of a counter across all of its label sets."""
        return sum(c.value for (n, _), c in self._counters.items() if n == name)

    def snapshot(self) -> list[MetricRow]:
        """All instruments flattened to rows, sorted by kind then key."""
        rows: list[MetricRow] = []
        for counter in self.counters():
            rows.append(
                MetricRow("counter", counter.name, counter.labels,
                          (("value", float(counter.value)),))
            )
        for gauge in self.gauges():
            rows.append(
                MetricRow("gauge", gauge.name, gauge.labels,
                          (("value", gauge.value), ("max", gauge.max_value)))
            )
        for histogram in self.histograms():
            fields: list[tuple[str, float]] = [("count", float(histogram.count))]
            if histogram.count:
                fields.append(("mean", histogram.mean))
                fields.extend(
                    (f"p{level:g}", histogram.percentile(level)) for level in DEFAULT_PERCENTILES
                )
                fields.append(("max", histogram.max))
            rows.append(MetricRow("histogram", histogram.name, histogram.labels, tuple(fields)))
        return rows

    def render_table(self) -> str:
        """Human-readable fixed-width metric table."""
        rows = self.snapshot()
        if not rows:
            return "(no metrics registered)"
        rendered = [("KIND", "METRIC", "VALUE")]
        for row in rows:
            series = row.name + format_labels(row.labels)
            fields = " ".join(f"{k}={_fmt(v)}" for k, v in row.fields)
            rendered.append((row.kind, series, fields))
        kind_w = max(len(r[0]) for r in rendered)
        name_w = max(len(r[1]) for r in rendered)
        return "\n".join(
            f"{kind:<{kind_w}}  {name:<{name_w}}  {fields}"
            for kind, name, fields in rendered
        )

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"
