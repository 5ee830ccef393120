"""Lifecycle spans: begin/end intervals with parent causality.

The Dapper-shaped complement to the point-event trace log: a
:class:`Span` covers an *interval* of simulated time — one agent poll
tick, one probe transfer, one guard hold, one fault window — and may
name a parent span, so a guard trip recorded inside a poll tick is
causally attached to that tick.

Spans export as Chrome trace-event JSON (the ``chrome://tracing`` /
Perfetto format): completed spans become ``"X"`` (complete) events with
microsecond ``ts``/``dur``, spans still open at the end of a run become
``"B"`` (begin) events.  Each distinct span source gets its own track
(``tid``), so a Perfetto timeline shows one lane per host/component.

The log is a :class:`~repro.obs.bounded.BoundedLog` whose merge
renumbers span ids *and* parent references.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.obs.bounded import BoundedLog


class Span:
    """One interval of simulated time on one source."""

    __slots__ = ("span_id", "name", "category", "source", "begin", "end", "parent_id", "details")

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        source: str,
        begin: float,
        *,
        parent_id: int | None = None,
        details: dict[str, object] | None = None,
    ) -> None:
        self.span_id = span_id
        self.name = name
        #: Coarse grouping used by the report joiner: ``"agent"``,
        #: ``"probe"``, ``"guard"``, ``"fault"``.
        self.category = category
        self.source = source
        self.begin = begin
        self.end: float | None = None
        self.parent_id = parent_id
        #: The keyword dict of the :meth:`SpanLog.begin` call, updated by
        #: :meth:`SpanLog.end`; immutable by convention otherwise.
        self.details: dict[str, object] = {} if details is None else details

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.begin

    def detail(self, key: str, default: object = None) -> object:
        return self.details.get(key, default)


class SpanLog(BoundedLog[Span]):
    """All spans of one run, bounded drop-newest with dense ids."""

    def begin(
        self,
        time: float,
        name: str,
        category: str,
        source: str,
        parent: Span | None = None,
        **details: object,
    ) -> Span | None:
        """Open a span.  Returns None past capacity (counted, not stored)."""
        span_id = self._claim()
        if span_id is None:
            return None
        span = Span(
            span_id=span_id,
            name=name,
            category=category,
            source=source,
            begin=time,
            parent_id=parent.span_id if parent is not None else None,
            details=details,
        )
        self._keep(span)
        return span

    def end(self, span: Span | None, time: float, **details: object) -> None:
        """Close a span, adding any closing details.

        A key given to both ``begin`` and ``end`` keeps one value, the
        closing one, at the position the opening call gave it: that is
        what :meth:`Span.detail` returns and what the exporters show.

        Accepts None (a span that was dropped at begin) so call sites
        never need to guard.
        """
        if span is None:
            return
        span.end = time
        if details:
            span.details.update(details)

    def _renumber(self, item: Span, offset: int) -> None:
        item.span_id += offset
        if item.parent_id is not None:
            item.parent_id += offset

    @property
    def next_id(self) -> int:
        """Total spans ever begun."""
        return self._recorded

    def spans(self, category: str | None = None) -> list[Span]:
        """Retained spans, optionally of one category."""
        return [span for span in self._items if category is None or span.category == category]

    def iter_chrome_trace(self) -> Iterator[dict[str, object]]:
        """Spans as Chrome trace-event objects (``ts``/``dur`` in µs).

        Completed spans become phase ``"X"`` events; spans still open
        become phase ``"B"`` events.  Sources map to ``tid`` tracks in
        sorted order so the layout is deterministic.  One event at a
        time, so an exporter never holds the whole list.
        """
        tids = {
            source: tid
            for tid, source in enumerate(
                sorted({span.source for span in self._items}), start=1
            )
        }
        for span in self._items:
            args: dict[str, object] = {"span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.details)
            event = {
                "name": span.name,
                "cat": span.category,
                "ph": "X" if span.end is not None else "B",
                "ts": span.begin * 1e6,
                "pid": 1,
                "tid": tids[span.source],
                "args": args,
            }
            if span.end is not None:
                event["dur"] = (span.end - span.begin) * 1e6
            yield event

    def __repr__(self) -> str:
        open_count = sum(1 for span in self._items if span.end is None)
        return (
            f"<SpanLog retained={len(self)}/{self.capacity} "
            f"begun={self._recorded} open={open_count} dropped={self.dropped}>"
        )
