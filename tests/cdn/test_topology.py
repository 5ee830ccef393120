"""Unit tests for PoPs and the 34-PoP paper topology."""

import pytest

from repro.cdn.geo import GeoPoint
from repro.cdn.pop import PoP
from repro.cdn.topology import Topology, build_paper_topology
from repro.net import Prefix


class TestPoP:
    def make(self, **overrides):
        kwargs = dict(
            code="TST",
            city="Testville",
            continent="Europe",
            location=GeoPoint(0.0, 0.0),
            prefix=Prefix.parse("10.0.0.0/24"),
            server_count=2,
        )
        kwargs.update(overrides)
        return PoP(**kwargs)

    def test_server_addresses_follow_prefix(self):
        pop = self.make(server_count=3)
        addresses = pop.server_addresses()
        assert [str(a) for a in addresses] == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]

    def test_unknown_continent_rejected(self):
        with pytest.raises(ValueError):
            self.make(continent="Atlantis")

    def test_empty_code_rejected(self):
        with pytest.raises(ValueError):
            self.make(code="")

    def test_prefix_must_fit_servers(self):
        with pytest.raises(ValueError):
            self.make(prefix=Prefix.parse("10.0.0.0/30"), server_count=5)

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            self.make(server_count=0)


class TestPaperTopology:
    def test_table2_census(self):
        counts = build_paper_topology().continent_counts()
        assert counts == {
            "Europe": 10,
            "North America": 11,
            "South America": 1,
            "Asia": 9,
            "Oceania": 3,
        }

    def test_34_pops_total(self):
        assert len(build_paper_topology().pops) == 34

    def test_unique_codes_and_prefixes(self):
        topo = build_paper_topology()
        codes = [p.code for p in topo.pops]
        prefixes = [p.prefix for p in topo.pops]
        assert len(set(codes)) == 34
        assert len(set(prefixes)) == 34

    def test_all_pairs_count(self):
        rtts = build_paper_topology().all_pair_rtts()
        assert len(rtts) == 34 * 33 // 2

    def test_median_rtt_exceeds_125ms(self):
        """The Figure 5 anchor."""
        rtts = sorted(build_paper_topology().all_pair_rtts())
        median = rtts[len(rtts) // 2]
        assert median > 0.125

    def test_rtt_symmetry(self):
        topo = build_paper_topology()
        a, b = topo.pops[0], topo.pops[20]
        assert topo.rtt(a, b) == topo.rtt(b, a)

    def test_duplicate_codes_rejected(self):
        topo = build_paper_topology()
        with pytest.raises(ValueError):
            Topology(pops=(topo.pops[0], topo.pops[0]))

    def test_servers_per_pop_configurable(self):
        topo = build_paper_topology(servers_per_pop=4)
        assert all(p.server_count == 4 for p in topo.pops)
