"""Destination grouping (Section III-B, "Destinations as Routes").

Riptide may treat each remote *host* as a destination (installing ``/32``
routes) or aggregate whole *prefixes* — "connections between machines in
each datacenter are subject to similar constraints", so one route per
remote PoP prefix costs fewer routes and pools more observations.
"""

from __future__ import annotations

from repro.core.config import VALID_GRANULARITY
from repro.net.addresses import IPv4Address, Prefix

#: The prefix granularity's route length: one route per remote PoP /16.
PREFIX_LENGTH = 16


class DestinationGrouper:
    """Maps remote addresses to route-table destination prefixes."""

    def __init__(self, granularity: str = "host") -> None:
        if granularity not in VALID_GRANULARITY:
            raise ValueError(
                f"granularity must be 'host' or 'prefix', got {granularity!r}"
            )
        self.granularity = granularity
        #: Address integer -> its key.  Every poll asks again for every
        #: open connection; the table grows to one entry per distinct
        #: remote this agent has seen.
        self._keys: dict[int, Prefix] = {}

    def key_for(self, remote: IPv4Address) -> Prefix:
        """The destination prefix a connection to ``remote`` belongs to."""
        value = remote.value
        key = self._keys.get(value)
        if key is None:
            if self.granularity == "host":
                key = Prefix.host(remote)
            else:
                key = Prefix.containing(remote, PREFIX_LENGTH)
            self._keys[value] = key
        return key

    def __repr__(self) -> str:
        if self.granularity == "host":
            return "<DestinationGrouper /32 host routes>"
        return f"<DestinationGrouper /{PREFIX_LENGTH} prefix routes>"
