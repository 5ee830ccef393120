"""The all-pairs policy tournament: every zoo policy × every scenario.

Riptide's evaluation compares one policy (the EWMA learner) against one
control (IW10).  The tournament widens that to the full competitor
field of :mod:`repro.policy`: every registered policy runs the same
deterministic cluster under every scenario — the clean network, the
three chaos scenarios (with their fault schedules), and a hybrid cell
with mean-field background traffic — and every cell is judged with the
tail-latency attribution report (:mod:`repro.obs.report`): p50/p90
probe completion time, the slow-probe cause mix and guard withdrawals,
plus the burn-rate SLO engine's violation count (episodes that reached
firing, :mod:`repro.obs.slo`).

Cells are independent simulations, so the matrix fans out across the
parallel runner; every cell computes its measurements from its own
instrumentation capture, which makes the leaderboard artifact
byte-identical between ``--workers 1`` and ``--workers N``.

Ranking: within a scenario, policies sort by new-connection p90 (the
population an initial-window policy changes), breaking ties with
new-connection p50, the all-probe p90, guard withdrawals, and finally
the policy name.  The overall leaderboard orders policies by mean
per-scenario rank.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.core.config import RiptideConfig
from repro.experiments.scenarios import PacketMesh, StudyArm, run_study_arm
from repro.faults.scenarios import get_scenario
from repro.obs.instrument import capture
from repro.obs.metrics import rounded_rank
from repro.obs.report import build_report
from repro.parallel.executor import run_tasks
from repro.policy.registry import policy_names
from repro.records import Frozen

#: PoPs for the scenarios without a fault schedule (clean, hybrid):
#: the same reduced evaluation footprint the fast probe studies use.
_CLEAN_POP_CODES = ("LHR", "AMS", "JFK", "NRT", "SYD")


class TournamentScenario(Frozen):
    """One column of the tournament matrix."""

    __slots__ = ("name", "description", "pop_codes", "source_pop", "chaos", "fluid_flows_per_pair")

    name: str
    description: str
    pop_codes: tuple[str, ...]
    #: PoP whose probe fleet produces the judged completion times.
    source_pop: str
    #: Chaos scenario name whose fault schedule runs during probing.
    chaos: str | None
    #: Mean-field background flows per PoP pair (0 = none).
    fluid_flows_per_pair: float

    def __init__(
        self,
        name: str,
        description: str,
        pop_codes: tuple[str, ...],
        source_pop: str,
        chaos: str | None = None,
        fluid_flows_per_pair: float = 0.0,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "pop_codes", pop_codes)
        object.__setattr__(self, "source_pop", source_pop)
        object.__setattr__(self, "chaos", chaos)
        object.__setattr__(self, "fluid_flows_per_pair", fluid_flows_per_pair)


def _chaos_column(name: str) -> TournamentScenario:
    scenario = get_scenario(name)
    return TournamentScenario(
        name=name,
        description=scenario.description,
        pop_codes=tuple(scenario.pop_codes),
        source_pop=scenario.source_pop,
        chaos=name,
    )


TOURNAMENT_SCENARIOS: dict[str, TournamentScenario] = {
    scenario.name: scenario
    for scenario in (
        TournamentScenario(
            name="clean",
            description="No faults: organic traffic and probes only",
            pop_codes=_CLEAN_POP_CODES,
            source_pop="LHR",
        ),
        _chaos_column("chaos_lossy_agent"),
        _chaos_column("chaos_partition"),
        _chaos_column("chaos_flaky_tools"),
        TournamentScenario(
            name="hybrid",
            description="Mean-field background flows share every trunk",
            pop_codes=_CLEAN_POP_CODES,
            source_pop="LHR",
            fluid_flows_per_pair=50.0,
        ),
    )
}


def scenario_names() -> tuple[str, ...]:
    """All tournament scenario names, in matrix order."""
    return tuple(TOURNAMENT_SCENARIOS)


#: Every cell's seed: the cells of a column differ only by policy.
SEED = 42


@dataclass(frozen=True, eq=False)
class TournamentConfig:
    """Knobs for one tournament run."""

    #: Policies to race; empty means every registered policy.
    policies: tuple[str, ...] = ()
    #: Scenario columns; empty means the full matrix.
    scenarios: tuple[str, ...] = ()
    #: Simulated seconds of organic traffic before probing and faults.
    warmup: float = 6.0
    #: Simulated seconds of probing; fault schedules are scaled to it.
    duration: float = 24.0
    probe_interval: float = 3.0

    def resolved_policies(self) -> tuple[str, ...]:
        selected = self.policies if self.policies else policy_names()
        known = set(policy_names())
        for name in selected:
            if name not in known:
                raise ValueError(
                    f"unknown policy {name!r} (known: {', '.join(sorted(known))})"
                )
        return tuple(selected)

    def resolved_scenarios(self) -> tuple[str, ...]:
        selected = self.scenarios if self.scenarios else scenario_names()
        for name in selected:
            if name not in TOURNAMENT_SCENARIOS:
                raise ValueError(
                    f"unknown scenario {name!r} "
                    f"(known: {', '.join(TOURNAMENT_SCENARIOS)})"
                )
        return tuple(selected)


def _percentile_ms(sorted_times: list[float], p: float) -> float | None:
    """Percentile ``p`` of completion times (:func:`rounded_rank`), in ms."""
    if not sorted_times:
        return None
    return round(rounded_rank(sorted_times, p) * 1000.0, 3)


def run_tournament_cell(
    policy: str, scenario_name: str, config: TournamentConfig
) -> dict[str, Any]:
    """Run one (policy, scenario) cell; return its picklable judgement.

    Every cell shares the seed, topology, workloads and probe schedule
    of its scenario column — only the window-decision policy differs —
    and measures itself from its own instrumentation capture so results
    do not depend on which process ran it.
    """
    scenario = TOURNAMENT_SCENARIOS[scenario_name]
    arm = StudyArm(
        seed=SEED,
        warmup=config.warmup,
        duration=config.duration,
        probe_interval=config.probe_interval,
        riptide=RiptideConfig(
            policy=policy,
            granularity="prefix",
            safety_guard=True,
        ),
        pop_codes=scenario.pop_codes,
        source_pops=(scenario.source_pop,),
        label=policy,
        riptide_enabled=True,
        fault_scenario=scenario.chaos,
        slo=True,
        background=PacketMesh(fluid_flows_per_pair=scenario.fluid_flows_per_pair),
    )
    with capture() as instrumentation:
        summary = run_study_arm(arm).summary()
    times = sorted(summary.fleet.completion_times())
    new_times = sorted(summary.fleet.completion_times(new_connections_only=True))
    report = build_report(
        instrumentation, experiment=f"{policy}/{scenario_name}"
    )
    return {
        "policy": policy,
        "scenario": scenario_name,
        "probes": report["probes"],
        "completed": len(times),
        "new_completed": len(new_times),
        "p50_ms": _percentile_ms(times, 50.0),
        "p90_ms": _percentile_ms(times, 90.0),
        "new_p50_ms": _percentile_ms(new_times, 50.0),
        "new_p90_ms": _percentile_ms(new_times, 90.0),
        "causes": report["causes"],
        "faults_injected": summary.faults_injected,
        "faults_cleared": summary.faults_cleared,
        # Burn-rate SLO judgement: episodes that reached firing in this
        # cell's capture (the cell owns exactly one cluster, so the whole
        # alert log is its own).
        "slo_violations": instrumentation.alerts.fired_count,
        "slo_resolved": instrumentation.alerts.resolved_count,
        "guard_trips": summary.guard_trips,
        "routes_installed": summary.routes_installed,
        "routes_expired": summary.routes_expired,
        "poll_failures": summary.poll_failures,
        "tool_errors": summary.tool_errors,
        "crashes": summary.crashes,
        "learned_routes": summary.learned_routes,
    }


_HUGE = float("inf")


def _cell_sort_key(cell: dict[str, Any]) -> tuple[float, float, float, int, str]:
    new_p90 = cell["new_p90_ms"]
    new_p50 = cell["new_p50_ms"]
    p90 = cell["p90_ms"]
    return (
        new_p90 if new_p90 is not None else _HUGE,
        new_p50 if new_p50 is not None else _HUGE,
        p90 if p90 is not None else _HUGE,
        cell["guard_trips"],
        cell["policy"],
    )


def build_leaderboard(
    cells: list[dict[str, Any]],
    policies: tuple[str, ...],
    scenarios: tuple[str, ...],
) -> dict[str, Any]:
    """Rank every scenario column, then order policies by mean rank."""
    by_scenario: dict[str, list[dict[str, Any]]] = {}
    for cell in cells:
        by_scenario.setdefault(cell["scenario"], []).append(cell)
    scenario_tables: dict[str, list[dict[str, Any]]] = {}
    ranks: dict[str, dict[str, int]] = {policy: {} for policy in policies}
    for scenario in scenarios:
        ranked = sorted(by_scenario.get(scenario, []), key=_cell_sort_key)
        table = []
        for position, cell in enumerate(ranked, start=1):
            ranks[cell["policy"]][scenario] = position
            table.append(
                {
                    "rank": position,
                    "policy": cell["policy"],
                    "new_p90_ms": cell["new_p90_ms"],
                    "new_p50_ms": cell["new_p50_ms"],
                    "p90_ms": cell["p90_ms"],
                    "guard_trips": cell["guard_trips"],
                    "slo_violations": cell.get("slo_violations", 0),
                }
            )
        scenario_tables[scenario] = table
    overall = []
    for policy in policies:
        policy_ranks = ranks[policy]
        mean_rank = (
            round(sum(policy_ranks.values()) / len(policy_ranks), 4)
            if policy_ranks
            else _HUGE
        )
        overall.append(
            {
                "policy": policy,
                "mean_rank": mean_rank,
                "ranks": {s: policy_ranks.get(s) for s in scenarios},
            }
        )
    overall.sort(key=lambda row: (row["mean_rank"], row["policy"]))
    for position, row in enumerate(overall, start=1):
        row["rank"] = position
    return {"overall": overall, "scenarios": scenario_tables}


class TournamentResult:
    """The full matrix plus its leaderboard."""

    __slots__ = ("config", "policies", "scenarios", "cells", "leaderboard")

    def __init__(
        self,
        config: TournamentConfig,
        policies: tuple[str, ...],
        scenarios: tuple[str, ...],
        cells: list[dict[str, Any]],
        leaderboard: dict[str, Any],
    ) -> None:
        self.config = config
        self.policies = policies
        self.scenarios = scenarios
        self.cells = cells
        self.leaderboard = leaderboard

    def artifact(self) -> dict[str, Any]:
        """The deterministic leaderboard artifact (no wall-clock data)."""
        return {
            "tournament": {
                "policies": list(self.policies),
                "scenarios": list(self.scenarios),
                "seed": SEED,
                "warmup": self.config.warmup,
                "duration": self.config.duration,
                "probe_interval": self.config.probe_interval,
            },
            "leaderboard": self.leaderboard,
            "cells": self.cells,
        }

    def to_json(self) -> str:
        return json.dumps(self.artifact(), indent=2) + "\n"

    def to_markdown(self) -> str:
        """The leaderboard as a markdown document."""

        def fmt(value: float | None) -> str:
            return "-" if value is None else f"{value:.1f}"

        lines = ["# Initial-window policy tournament", ""]
        lines.append(
            f"{len(self.policies)} policies x {len(self.scenarios)} scenarios, "
            f"seed {SEED}, {self.config.duration:g}s probing per "
            f"cell after {self.config.warmup:g}s warmup."
        )
        lines.append("")
        lines.append("## Overall (mean per-scenario rank)")
        lines.append("")
        header = "| rank | policy | mean rank | " + " | ".join(self.scenarios) + " |"
        lines.append(header)
        lines.append("|" + "---|" * (3 + len(self.scenarios)))
        for row in self.leaderboard["overall"]:
            scenario_ranks = " | ".join(
                str(row["ranks"][s]) if row["ranks"][s] is not None else "-"
                for s in self.scenarios
            )
            lines.append(
                f"| {row['rank']} | {row['policy']} | {row['mean_rank']:g} | "
                f"{scenario_ranks} |"
            )
        for scenario in self.scenarios:
            lines.append("")
            lines.append(f"## {scenario}")
            lines.append("")
            lines.append(
                "| rank | policy | new-conn p90 (ms) | new-conn p50 (ms) | "
                "all p90 (ms) | guard trips | SLO violations |"
            )
            lines.append("|---|---|---|---|---|---|---|")
            for row in self.leaderboard["scenarios"][scenario]:
                lines.append(
                    f"| {row['rank']} | {row['policy']} | "
                    f"{fmt(row['new_p90_ms'])} | {fmt(row['new_p50_ms'])} | "
                    f"{fmt(row['p90_ms'])} | {row['guard_trips']} | "
                    f"{row.get('slo_violations', 0)} |"
                )
        lines.append("")
        lines.append(
            "Reproduce: `python -m repro tournament --workers 4` "
            "(add `--fast` for the reduced clock)."
        )
        return "\n".join(lines) + "\n"

    def report(self) -> str:
        """Text report for ``python -m repro run tournament``."""
        return self.to_markdown().rstrip("\n")


def run_tournament(
    config: TournamentConfig | None = None, workers: int = 1
) -> TournamentResult:
    """Run the policy × scenario matrix; rank every column.

    With ``workers`` > 1 the independent cells fan out across forked
    worker processes (:mod:`repro.parallel`); each cell measures itself
    under its own capture, so the result is byte-identical to serial.
    """
    config = config if config is not None else TournamentConfig()
    policies = config.resolved_policies()
    scenarios = config.resolved_scenarios()
    pairs = [(policy, scenario) for policy in policies for scenario in scenarios]
    tasks = [
        lambda policy=policy, scenario=scenario: run_tournament_cell(
            policy, scenario, config
        )
        for policy, scenario in pairs
    ]
    cells = run_tasks(
        tasks,
        workers=workers,
        labels=[f"tournament:{p}:{s}" for p, s in pairs],
    )
    leaderboard = build_leaderboard(cells, policies, scenarios)
    return TournamentResult(
        config=config,
        policies=policies,
        scenarios=scenarios,
        cells=cells,
        leaderboard=leaderboard,
    )

