"""Table II benchmark: the continental PoP census."""

from repro.experiments import table2_pops


def test_table2_pop_census():
    result = table2_pops.run()
    print("\n" + result.report())
    assert result.matches_paper
    assert result.total == 34
