"""Points of presence.

A PoP is a named site with a location, a continent (for the Table II
census), an address prefix (its network zone) and a number of servers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cdn.geo import GeoPoint
from repro.net.addresses import IPv4Address, Prefix

VALID_CONTINENTS = (
    "Europe",
    "North America",
    "South America",
    "Asia",
    "Oceania",
    "Africa",
)


@dataclass(frozen=True)
class PoP:
    """One point of presence in the CDN."""

    code: str
    city: str
    continent: str
    location: GeoPoint
    prefix: Prefix
    server_count: int = 2

    def __post_init__(self) -> None:
        if not self.code:
            raise ValueError("PoP code must be non-empty")
        if self.continent not in VALID_CONTINENTS:
            raise ValueError(
                f"unknown continent {self.continent!r}; expected one of "
                f"{', '.join(VALID_CONTINENTS)}"
            )
        if self.server_count < 1:
            raise ValueError(f"server_count must be >= 1, got {self.server_count}")
        if self.prefix.num_addresses < self.server_count + 1:
            raise ValueError(
                f"prefix {self.prefix} too small for {self.server_count} servers"
            )

    def server_addresses(self) -> list[IPv4Address]:
        """The addresses of this PoP's servers (network base + 1, +2, ...)."""
        base = self.prefix.network.value
        return [IPv4Address(base + 1 + i) for i in range(self.server_count)]

    def __str__(self) -> str:
        return f"{self.code} ({self.city}, {self.continent})"
