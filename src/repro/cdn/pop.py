"""Points of presence.

A PoP is a named site with a location, a continent (for the Table II
census), an address prefix (its network zone) and a number of servers.
"""

from __future__ import annotations


from repro.cdn.geo import GeoPoint
from repro.net.addresses import IPv4Address, Prefix
from repro.records import Frozen

VALID_CONTINENTS = (
    "Europe",
    "North America",
    "South America",
    "Asia",
    "Oceania",
    "Africa",
)


class PoP(Frozen):
    """One point of presence in the CDN."""

    __slots__ = ("code", "city", "continent", "location", "prefix", "server_count")

    code: str
    city: str
    continent: str
    location: GeoPoint
    prefix: Prefix
    server_count: int

    def __init__(
        self,
        code: str,
        city: str,
        continent: str,
        location: GeoPoint,
        prefix: Prefix,
        server_count: int = 2,
    ) -> None:
        if not code:
            raise ValueError("PoP code must be non-empty")
        if continent not in VALID_CONTINENTS:
            raise ValueError(
                f"unknown continent {continent!r}; expected one of "
                f"{', '.join(VALID_CONTINENTS)}"
            )
        if server_count < 1:
            raise ValueError(f"server_count must be >= 1, got {server_count}")
        if prefix.num_addresses < server_count + 1:
            raise ValueError(
                f"prefix {prefix} too small for {server_count} servers"
            )
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "city", city)
        object.__setattr__(self, "continent", continent)
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "server_count", server_count)

    def server_addresses(self) -> list[IPv4Address]:
        """The addresses of this PoP's servers (network base + 1, +2, ...)."""
        base = self.prefix.network.value
        return [IPv4Address(base + 1 + i) for i in range(self.server_count)]

    def __str__(self) -> str:
        return f"{self.code} ({self.city}, {self.continent})"
