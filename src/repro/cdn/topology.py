"""The 34-PoP global deployment of the paper's Table II.

Continental census (Table II): Europe 10, North America 11,
South America 1, Asia 9, Oceania 3 — 34 PoPs.  Cities are plausible CDN
metros; coordinates are real, so the pairwise RTT distribution (Figure 5)
emerges from geography rather than being hand-drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cdn.geo import GeoPoint, rtt_between
from repro.cdn.pop import PoP
from repro.net.addresses import Prefix

#: (code, city, continent, latitude, longitude)
PAPER_POP_SITES: tuple[tuple[str, str, str, float, float], ...] = (
    # Europe (10)
    ("LHR", "London", "Europe", 51.51, -0.13),
    ("FRA", "Frankfurt", "Europe", 50.11, 8.68),
    ("CDG", "Paris", "Europe", 48.86, 2.35),
    ("AMS", "Amsterdam", "Europe", 52.37, 4.90),
    ("MAD", "Madrid", "Europe", 40.42, -3.70),
    ("MXP", "Milan", "Europe", 45.46, 9.19),
    ("ARN", "Stockholm", "Europe", 59.33, 18.07),
    ("WAW", "Warsaw", "Europe", 52.23, 21.01),
    ("VIE", "Vienna", "Europe", 48.21, 16.37),
    ("DUB", "Dublin", "Europe", 53.35, -6.26),
    # North America (11)
    ("JFK", "New York", "North America", 40.71, -74.01),
    ("LAX", "Los Angeles", "North America", 34.05, -118.24),
    ("ORD", "Chicago", "North America", 41.88, -87.63),
    ("DFW", "Dallas", "North America", 32.78, -96.80),
    ("MIA", "Miami", "North America", 25.76, -80.19),
    ("SEA", "Seattle", "North America", 47.61, -122.33),
    ("IAD", "Ashburn", "North America", 39.04, -77.49),
    ("ATL", "Atlanta", "North America", 33.75, -84.39),
    ("DEN", "Denver", "North America", 39.74, -104.99),
    ("YYZ", "Toronto", "North America", 43.65, -79.38),
    ("SJC", "San Jose", "North America", 37.34, -121.89),
    # South America (1)
    ("GRU", "Sao Paulo", "South America", -23.55, -46.63),
    # Asia (9)
    ("NRT", "Tokyo", "Asia", 35.68, 139.69),
    ("SIN", "Singapore", "Asia", 1.35, 103.82),
    ("HKG", "Hong Kong", "Asia", 22.32, 114.17),
    ("ICN", "Seoul", "Asia", 37.57, 126.98),
    ("KIX", "Osaka", "Asia", 34.69, 135.50),
    ("BOM", "Mumbai", "Asia", 19.08, 72.88),
    ("MAA", "Chennai", "Asia", 13.08, 80.27),
    ("TPE", "Taipei", "Asia", 25.03, 121.57),
    ("MNL", "Manila", "Asia", 14.60, 120.98),
    # Oceania (3)
    ("SYD", "Sydney", "Oceania", -33.87, 151.21),
    ("MEL", "Melbourne", "Oceania", -37.81, 144.96),
    ("AKL", "Auckland", "Oceania", -36.85, 174.76),
)


@dataclass(frozen=True, eq=False)
class Topology:
    """An immutable set of PoPs with derived pairwise RTTs."""

    pops: tuple[PoP, ...]

    def __post_init__(self) -> None:
        codes = [pop.code for pop in self.pops]
        if len(set(codes)) != len(codes):
            raise ValueError("duplicate PoP codes in topology")

    def continent_counts(self) -> dict[str, int]:
        """Table II: PoP count per continent."""
        counts: dict[str, int] = {}
        for pop in self.pops:
            counts[pop.continent] = counts.get(pop.continent, 0) + 1
        return counts

    def rtt(self, a: PoP, b: PoP) -> float:
        """Base RTT between two PoPs in seconds."""
        return rtt_between(a.location, b.location)

    def pairs(self):
        """All unordered PoP pairs."""
        for i, a in enumerate(self.pops):
            for b in self.pops[i + 1 :]:
                yield a, b

    def all_pair_rtts(self) -> list[float]:
        """RTTs of all unordered pairs — the Figure 5 population."""
        return [self.rtt(a, b) for a, b in self.pairs()]


def build_paper_topology(servers_per_pop: int = 2) -> Topology:
    """The 34-PoP deployment with Table II's continental census.

    Each PoP ``i`` owns the zone ``10.<i>.0.0/16``; servers sit at the
    first addresses of the zone.
    """
    pops = []
    for index, (code, city, continent, lat, lon) in enumerate(PAPER_POP_SITES):
        pops.append(
            PoP(
                code=code,
                city=city,
                continent=continent,
                location=GeoPoint(lat, lon),
                prefix=Prefix.parse(f"10.{index}.0.0/16"),
                server_count=servers_per_pop,
            )
        )
    return Topology(pops=tuple(pops))
