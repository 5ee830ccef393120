"""Table II: CDN PoPs with Riptide deployed, per continent."""

from __future__ import annotations


from repro.analysis.tables import format_table
from repro.cdn.topology import build_paper_topology

PAPER_TABLE2 = {
    "Europe": 10,
    "North America": 11,
    "South America": 1,
    "Asia": 9,
    "Oceania": 3,
}


class Table2Result:
    __slots__ = ("counts",)

    def __init__(self, counts: dict[str, int]) -> None:
        self.counts = counts

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def matches_paper(self) -> bool:
        return self.counts == PAPER_TABLE2

    def report(self) -> str:
        rows = [
            (continent, str(count), str(PAPER_TABLE2.get(continent, 0)))
            for continent, count in sorted(self.counts.items())
        ]
        rows.append(("TOTAL", str(self.total), str(sum(PAPER_TABLE2.values()))))
        return format_table(
            ("continent", "built", "paper"),
            rows,
            title="Table II: PoPs per continent",
        )


def run() -> Table2Result:
    return Table2Result(counts=build_paper_topology().continent_counts())
