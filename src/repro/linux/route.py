"""The host route table (FIB) with per-route TCP window overrides.

Linux allows ``initcwnd`` and ``initrwnd`` to be attached to individual
routes; a connection picks them up at establishment via longest-prefix
match on the destination.  This is the one kernel mechanism Riptide uses,
so it is modelled faithfully: most-specific prefix wins, ``/32`` host
routes beat prefix routes beat the default route.
"""

from __future__ import annotations


from repro.net.addresses import IPv4Address, Prefix
from repro.records import Frozen


class RouteEntry(Frozen):
    """One FIB entry.

    ``initcwnd``/``initrwnd`` of ``None`` mean "inherit the sysctl
    default", exactly like a route without those attributes on Linux.
    """

    __slots__ = ("prefix", "initcwnd", "initrwnd", "created_at")

    prefix: Prefix
    initcwnd: int | None
    initrwnd: int | None
    created_at: float

    def __init__(
        self,
        prefix: Prefix,
        initcwnd: int | None = None,
        initrwnd: int | None = None,
        created_at: float = 0.0,
    ) -> None:
        if initcwnd is not None and initcwnd < 1:
            raise ValueError(f"initcwnd must be >= 1, got {initcwnd}")
        if initrwnd is not None and initrwnd < 1:
            raise ValueError(f"initrwnd must be >= 1, got {initrwnd}")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "initcwnd", initcwnd)
        object.__setattr__(self, "initrwnd", initrwnd)
        object.__setattr__(self, "created_at", created_at)

    def format_linux(self) -> str:
        """Render roughly as ``ip route show`` would."""
        parts = [str(self.prefix), "proto static"]
        if self.initcwnd is not None:
            parts.append(f"initcwnd {self.initcwnd}")
        if self.initrwnd is not None:
            parts.append(f"initrwnd {self.initrwnd}")
        return " ".join(parts)


class RouteTable:
    """Longest-prefix-match route table.

    Beside the exact-prefix map the table keeps one bucket per distinct
    prefix length, longest first: ``(length, mask, {network int:
    entry})``.  Two prefixes of one length never overlap, so the first
    bucket holding ``destination & mask`` is the longest match and a
    lookup costs one dict probe per distinct length, not one comparison
    per route.  Every mutator goes through :meth:`_store` or
    :meth:`delete`, which keep the two structures in step and bump
    :attr:`version`: a reader that cached a lookup holds it valid while
    the table object and its version are the ones it read it under.
    """

    def __init__(self) -> None:
        self._routes: dict[Prefix, RouteEntry] = {}
        self._index: list[tuple[int, int, dict[int, RouteEntry]]] = []
        #: Count of successful mutations; a failed add or delete leaves it.
        self.version = 0

    def __len__(self) -> int:
        return len(self._routes)

    def _store(self, entry: RouteEntry) -> None:
        prefix = entry.prefix
        self._routes[prefix] = entry
        length = prefix.length
        for level in self._index:
            if level[0] == length:
                bucket = level[2]
                break
        else:
            bucket = {}
            self._index.append((length, prefix.mask, bucket))
            self._index.sort(key=lambda level: -level[0])
        bucket[prefix.network.value] = entry
        self.version += 1

    def add(self, entry: RouteEntry) -> None:
        """Add a route; fails if the exact prefix already exists."""
        if entry.prefix in self._routes:
            raise KeyError(f"route for {entry.prefix} already exists")
        self._store(entry)

    def replace(self, entry: RouteEntry) -> None:
        """Add or overwrite the route for the entry's prefix."""
        self._store(entry)

    def delete(self, prefix: Prefix) -> RouteEntry:
        """Remove and return the route for an exact prefix.

        Raises :class:`KeyError` when no such route exists.
        """
        entry = self._routes.pop(prefix)
        length = prefix.length
        for position, (level_length, _mask, bucket) in enumerate(self._index):
            if level_length == length:
                del bucket[prefix.network.value]
                if not bucket:
                    del self._index[position]
                break
        self.version += 1
        return entry

    def get(self, prefix: Prefix) -> RouteEntry | None:
        """The route for an *exact* prefix, if present."""
        return self._routes.get(prefix)

    def lookup(self, destination: IPv4Address) -> RouteEntry | None:
        """Longest-prefix match for a destination address."""
        value = destination.value
        for _length, mask, bucket in self._index:
            entry = bucket.get(value & mask)
            if entry is not None:
                return entry
        return None

    def entries(self) -> list[RouteEntry]:
        """All routes, most specific first (stable order within a length)."""
        return sorted(
            self._routes.values(),
            key=lambda e: (-e.prefix.length, e.prefix.network.value),
        )

    def __repr__(self) -> str:
        return f"<RouteTable routes={len(self._routes)}>"
