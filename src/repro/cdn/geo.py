"""Geography: great-circle distances and RTT synthesis.

The paper's Figure 5 shows the RTT distribution between its globally
deployed datacenters (median above 125 ms).  We reproduce that
distribution from first principles: PoPs get real city coordinates,
distances come from the haversine formula, and RTTs follow from the speed
of light in fibre times a route-inflation factor (real paths are not
great circles; published measurements put inflation around 1.5-2.5x).
"""

from __future__ import annotations

import math

from repro.records import Frozen

#: Speed of light in fibre, km/s (roughly 2/3 of c).
FIBRE_KM_PER_SECOND = 200_000.0

#: Path-inflation factor over the great circle.  Calibrated so the 34-PoP
#: topology satisfies both Figure 5 (median pairwise RTT just above
#: 125 ms) and Figure 6 (median IW10 penalty above 280 ms).
PATH_INFLATION = 1.65

#: Floor for very close PoPs (metro interconnect, equipment latency).
MIN_RTT_SECONDS = 0.002


class GeoPoint(Frozen):
    """A latitude/longitude pair in degrees."""

    __slots__ = ("latitude", "longitude")

    latitude: float
    longitude: float

    def __init__(self, latitude: float, longitude: float) -> None:
        if not -90.0 <= latitude <= 90.0:
            raise ValueError(f"latitude out of range: {latitude}")
        if not -180.0 <= longitude <= 180.0:
            raise ValueError(f"longitude out of range: {longitude}")
        object.__setattr__(self, "latitude", latitude)
        object.__setattr__(self, "longitude", longitude)


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometres."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * (
        math.sin(dlon / 2.0) ** 2
    )
    earth_radius_km = 6371.0
    return 2.0 * earth_radius_km * math.asin(math.sqrt(h))


def rtt_between(a: GeoPoint, b: GeoPoint) -> float:
    """Round-trip time in seconds between two locations.

    ``distance * PATH_INFLATION`` out and back at fibre speed, floored at
    ``MIN_RTT_SECONDS`` for co-located or metro-distance pairs.
    """
    distance_km = haversine_km(a, b)
    one_way = distance_km * PATH_INFLATION / FIBRE_KM_PER_SECOND
    return max(2.0 * one_way, MIN_RTT_SECONDS)
