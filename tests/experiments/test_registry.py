"""Tests for the experiment registry."""

import pytest

from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "fig02", "fig03", "fig04", "fig05", "fig06", "table2",
            "fig10", "fig11", "fig12_14", "fig15_16", "edge_cases",
            "ext_diurnal", "ext_advisory",
            "chaos_lossy_agent", "chaos_partition", "chaos_flaky_tools",
            "hybrid", "tournament",
        }
        assert set(EXPERIMENTS) == expected

    def test_get_experiment(self):
        exp = get_experiment("fig02")
        assert exp.experiment_id == "fig02"
        assert callable(exp.run)

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")

    def test_descriptions_non_empty(self):
        assert all(exp.description for exp in list_experiments())

    def test_simulation_flags(self):
        assert not get_experiment("fig03").simulation_backed
        assert get_experiment("fig10").simulation_backed

    def test_model_experiments_runnable(self):
        """Every non-simulation experiment runs quickly end to end."""
        for exp in list_experiments():
            if exp.simulation_backed:
                continue
            if exp.experiment_id in ("fig02", "fig03"):
                result = exp.run(samples=5_000)
            else:
                result = exp.run()
            assert result.report()
