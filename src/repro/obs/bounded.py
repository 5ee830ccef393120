"""The one bounded drop-newest log under the five record stores.

:class:`~repro.obs.flow.FlowLog`, :class:`~repro.obs.span.SpanLog`,
:class:`~repro.obs.timeline.Timeline`,
:class:`~repro.obs.tsdb.WindowedStore` and
:class:`~repro.obs.slo.AlertLog` all keep the same contract: every
record is *counted*, the first ``capacity`` records are *retained*, and
later ones are dropped.  Because retention is a prefix of the record
stream, merging per-worker logs in task order
(:meth:`BoundedLog.merge_from`) reproduces exactly what one log
recording the whole stream serially would hold — same retained records,
same dense ids, same ``dropped``.

The subclasses own the typed record construction (``begin``/``record``),
their readers and their ``__repr__``; two hooks carry what differs at
merge time: :meth:`BoundedLog._renumber` for records that carry ids, and
:meth:`BoundedLog._keep` for a store that indexes what it retains.

:class:`~repro.obs.trace.TraceLog` is deliberately not one of these: it
is a drop-*oldest* ring.
"""

from __future__ import annotations

from typing import Generic, TypeVar

T = TypeVar("T")


class BoundedLog(Generic[T]):
    """Counted, capacity-bounded, drop-newest list of records."""

    __slots__ = ("capacity", "_items", "_recorded")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: list[T] = []
        self._recorded = 0

    def _claim(self) -> int | None:
        """Count one record: its dense id, or None past capacity.

        A None means the record is counted but must not be built or
        kept; ids keep counting past capacity.
        """
        index = self._recorded
        self._recorded += 1
        return index if len(self._items) < self.capacity else None

    def _keep(self, item: T) -> None:
        """Retain one record (the caller holds a claimed id, or room)."""
        self._items.append(item)

    def _renumber(self, item: T, offset: int) -> None:
        """Shift the ids ``item`` carries by ``offset`` (none by default)."""

    def merge_from(self, other: "BoundedLog[T]") -> None:
        """Fold another log's records into this one, byte-identically.

        Every record of the other log — kept or not — is renumbered by
        this log's count, the ids a serial run recording both workloads
        in task order would have assigned; its retained records append
        until this log's capacity, so the retained prefix and the
        dropped count match the serial run exactly.
        """
        offset = self._recorded
        room = self.capacity - len(self._items)
        for index, item in enumerate(other._items):
            self._renumber(item, offset)
            if index < room:
                self._keep(item)
        self._recorded = offset + other._recorded

    @property
    def recorded(self) -> int:
        """Total records ever counted (not capacity-limited)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        """Records counted past capacity and therefore not retained."""
        return self._recorded - len(self._items)

    def __len__(self) -> int:
        return len(self._items)
