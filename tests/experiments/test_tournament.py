"""Tests for the policy tournament (``repro.experiments.tournament``)."""

import json

import pytest

from repro.experiments.registry import get_experiment
from repro.experiments.tournament import (
    TOURNAMENT_SCENARIOS,
    TournamentConfig,
    build_leaderboard,
    run_tournament,
    scenario_names,
)
from repro.policy.registry import policy_names

SMOKE_CONFIG = TournamentConfig(
    policies=("iw10", "ewma"),
    scenarios=("clean", "chaos_flaky_tools"),
    warmup=2.0,
    duration=6.0,
    probe_interval=2.0,
)


class TestConfig:
    def test_defaults_resolve_to_full_matrix(self):
        config = TournamentConfig()
        assert config.resolved_policies() == policy_names()
        assert config.resolved_scenarios() == scenario_names()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown polic"):
            TournamentConfig(policies=("nope",)).resolved_policies()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            TournamentConfig(scenarios=("nope",)).resolved_scenarios()

    def test_scenarios_cover_chaos_and_hybrid(self):
        assert set(TOURNAMENT_SCENARIOS) == {
            "clean",
            "chaos_lossy_agent",
            "chaos_partition",
            "chaos_flaky_tools",
            "hybrid",
        }
        assert TOURNAMENT_SCENARIOS["clean"].chaos is None
        assert TOURNAMENT_SCENARIOS["chaos_partition"].chaos == "chaos_partition"
        assert TOURNAMENT_SCENARIOS["hybrid"].fluid_flows_per_pair > 0


class TestLeaderboard:
    def _cell(self, policy, scenario, new_p90, guard_trips=0):
        return {
            "policy": policy,
            "scenario": scenario,
            "new_p90_ms": new_p90,
            "new_p50_ms": new_p90 / 2 if new_p90 is not None else None,
            "p90_ms": new_p90,
            "guard_trips": guard_trips,
        }

    def test_ranks_by_new_connection_tail(self):
        cells = [
            self._cell("slow", "clean", 900.0),
            self._cell("fast", "clean", 300.0),
            self._cell("slow", "hybrid", 950.0),
            self._cell("fast", "hybrid", 350.0),
        ]
        board = build_leaderboard(cells, ("fast", "slow"), ("clean", "hybrid"))
        assert board["overall"][0]["policy"] == "fast"
        assert board["overall"][0]["rank"] == 1
        assert board["overall"][0]["mean_rank"] == 1.0
        assert board["scenarios"]["clean"][0]["policy"] == "fast"
        assert board["scenarios"]["clean"][1]["policy"] == "slow"

    def test_missing_measurements_rank_last(self):
        cells = [
            self._cell("broken", "clean", None),
            self._cell("ok", "clean", 500.0),
        ]
        board = build_leaderboard(cells, ("broken", "ok"), ("clean",))
        assert board["overall"][0]["policy"] == "ok"
        assert board["scenarios"]["clean"][-1]["policy"] == "broken"

    def test_guard_trips_break_latency_ties(self):
        cells = [
            self._cell("trippy", "clean", 400.0, guard_trips=5),
            self._cell("calm", "clean", 400.0, guard_trips=0),
        ]
        board = build_leaderboard(cells, ("calm", "trippy"), ("clean",))
        assert board["scenarios"]["clean"][0]["policy"] == "calm"


class TestRegistration:
    def test_registered_with_worker_support(self):
        exp = get_experiment("tournament")
        assert exp.simulation_backed
        assert exp.supports_workers

    def test_chaos_experiments_declare_fault_scenarios(self):
        for name in ("chaos_lossy_agent", "chaos_partition", "chaos_flaky_tools"):
            assert get_experiment(name).fault_scenario == name
        assert get_experiment("fig10").fault_scenario is None


class TestEndToEnd:
    def test_serial_and_parallel_runs_are_byte_identical(self):
        serial = run_tournament(SMOKE_CONFIG, workers=1)
        parallel = run_tournament(SMOKE_CONFIG, workers=2)
        assert serial.to_json() == parallel.to_json()

    def test_artifact_shape(self):
        result = run_tournament(SMOKE_CONFIG, workers=2)
        artifact = json.loads(result.to_json())
        assert artifact["tournament"]["policies"] == list(
            SMOKE_CONFIG.resolved_policies()
        )
        assert artifact["tournament"]["scenarios"] == list(
            SMOKE_CONFIG.resolved_scenarios()
        )
        assert len(artifact["cells"]) == 4
        for cell in artifact["cells"]:
            assert cell["probes"]["total"] > 0
            assert cell["completed"] > 0
            assert cell["events_processed"] > 0
            assert cell["slo_violations"] >= cell["slo_resolved"] >= 0
        ranks = [row["rank"] for row in artifact["leaderboard"]["overall"]]
        assert ranks == sorted(ranks)
        for rows in artifact["leaderboard"]["scenarios"].values():
            for row in rows:
                assert "slo_violations" in row
        markdown = result.to_markdown()
        assert "| rank |" in markdown
        assert "| SLO violations |" in markdown
        assert "python -m repro tournament" in markdown
