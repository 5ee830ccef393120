"""The learned-window table with TTL expiry (Algorithm 1's output side).

Each destination Riptide has decided a window for is tracked here, with
the time it was last refreshed.  "Final values are further stored with a
time-to-live value t ... If the time-to-live expires, the entry is
removed from the table, and the corresponding route is removed, restoring
the default initial congestion window."
"""

from __future__ import annotations

from operator import attrgetter

from repro.net.addresses import Prefix

_updated_at = attrgetter("updated_at")


class LearnedEntry:
    """One destination's learned state."""

    __slots__ = ("destination", "window", "updated_at", "expires_at")

    def __init__(
        self,
        destination: Prefix,
        window: int,
        updated_at: float,
        expires_at: float,
    ) -> None:
        self.destination = destination
        self.window = window
        self.updated_at = updated_at
        self.expires_at = expires_at


class LearnedTable:
    """Learned windows keyed by destination prefix."""

    def __init__(self, ttl: float) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.ttl = ttl
        self._entries: dict[Prefix, LearnedEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, destination: Prefix) -> bool:
        return destination in self._entries

    def get(self, destination: Prefix) -> LearnedEntry | None:
        return self._entries.get(destination)

    def record(self, destination: Prefix, window: int, now: float) -> LearnedEntry:
        """Store (or refresh) a learned window, resetting its TTL."""
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        entry = LearnedEntry(
            destination=destination,
            window=window,
            updated_at=now,
            expires_at=now + self.ttl,
        )
        self._entries[destination] = entry
        return entry

    def clear(self) -> None:
        """Drop every entry (agent stop with route removal)."""
        self._entries.clear()

    def remove(self, destination: Prefix) -> LearnedEntry | None:
        """Drop one entry (safety-guard withdrawal); None when absent."""
        return self._entries.pop(destination, None)

    def pop_expired(self, now: float) -> list[LearnedEntry]:
        """Remove and return every entry whose TTL has lapsed."""
        expired = [e for e in self._entries.values() if now >= e.expires_at]
        for entry in expired:
            del self._entries[entry.destination]
        return expired

    def entries(self) -> list[LearnedEntry]:
        """All live entries, most recently updated first."""
        return sorted(self._entries.values(), key=_updated_at, reverse=True)

    def windows(self) -> dict[Prefix, int]:
        """Destination -> learned window, for quick inspection."""
        return {dest: entry.window for dest, entry in self._entries.items()}

    def __repr__(self) -> str:
        return f"<LearnedTable entries={len(self._entries)} ttl={self.ttl}s>"
