"""Chaos experiments: the paired probe study under injected faults.

The paper's evaluation runs on a production CDN that misbehaves daily;
the reproduction's counterpart injects that misbehaviour on purpose.
Each chaos experiment runs the control (IW10) and Riptide arms of a
probe study under the *same* deterministic fault schedule (same seed,
same faults, same packet drops) and asks the deployment-safety
question: does Riptide, with its resilience policies (bounded tool
retries, poll-failure tolerance, the safety guard reverting hostile
paths to IW10), still beat or at least match the control — or does a
learned window amplify the damage?

The verdict compares the median completion time of *new-connection*
probes (the population Riptide changes) with a small tolerance; the
report also surfaces the resilience counters so an operator can see the
faults being absorbed rather than silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import median

from repro.analysis.tables import format_table
from repro.core.config import RiptideConfig
from repro.experiments.scenarios import (
    StudyArm,
    StudyConfig,
    StudySummary,
    control_and_riptide,
    run_arm_pair,
)
from repro.faults.scenarios import ChaosScenario, ExpectedAlert, get_scenario
from repro.obs.slo import AlertEpisode

#: Fractional slack on the median verdict: "matches" means within this.
VERDICT_TOLERANCE = 0.05


@dataclass(frozen=True, eq=False)
class ChaosStudyConfig(StudyConfig):
    """Knobs for a paired chaos study."""

    scenario: str = "chaos_lossy_agent"
    duration: float = 90.0
    #: The chaos arms enable the safety guard — it is the resilience
    #: policy under test — on top of the evaluation's prefix granularity.
    riptide: RiptideConfig = field(
        default_factory=lambda: RiptideConfig(
            granularity="prefix", safety_guard=True
        )
    )


def check_expected_alert(
    expectation: ExpectedAlert, episodes: tuple[AlertEpisode, ...]
) -> tuple[bool, str]:
    """Judge one expected-alert contract against one arm's episodes."""
    mine = [e for e in episodes if e.slo == expectation.slo]
    fired = [e for e in mine if e.fired]
    resolved = [e for e in mine if e.resolved]
    if not fired:
        return False, f"{expectation.slo}: expected to fire, never did"
    if expectation.must_resolve and not resolved:
        return False, f"{expectation.slo}: fired but never resolved"
    detail = (
        f"{expectation.slo}: fired {len(fired)} episode(s), "
        f"resolved {len(resolved)}"
    )
    return True, detail


def chaos_study_arms(config: ChaosStudyConfig) -> tuple[StudyArm, StudyArm]:
    """The ``(control, riptide)`` arms, both under the scenario's faults."""
    scenario = get_scenario(config.scenario)
    return control_and_riptide(
        config,
        pop_codes=scenario.pop_codes,
        source_pops=(scenario.source_pop,),
        fault_scenario=scenario.name,
        slo=True,
    )


class ChaosStudyResult:
    """Both arms of one chaos study plus the verdict machinery."""

    __slots__ = ("scenario", "duration", "control", "riptide")

    def __init__(
        self,
        scenario: ChaosScenario,
        duration: float,
        control: StudySummary,
        riptide: StudySummary,
    ) -> None:
        self.scenario = scenario
        self.duration = duration
        self.control = control
        self.riptide = riptide

    def _times(self, arm: StudySummary, new_only: bool) -> list[float]:
        return arm.fleet.completion_times(new_connections_only=new_only)

    def median_gain(self) -> float | None:
        """Fractional median improvement of new-connection probes
        (positive = Riptide faster)."""
        control = self._times(self.control, True)
        riptide = self._times(self.riptide, True)
        if not control or not riptide:
            return None
        control_median = median(control)
        if control_median == 0:
            return None
        return 1.0 - median(riptide) / control_median

    @property
    def riptide_holds_up(self) -> bool:
        """True when Riptide beats or matches the control under faults.

        Judged on the median completion time of new-connection probes
        (the population Riptide changes) within a small tolerance; a run
        where faults killed every probe on both arms counts as holding
        up (nothing to lose).
        """
        gain = self.median_gain()
        if gain is None:
            return True
        return gain >= -VERDICT_TOLERANCE

    def alert_assertion_results(self) -> list[tuple[ExpectedAlert, bool, str]]:
        """Each scenario expectation judged against the Riptide arm."""
        results = []
        for expectation in self.scenario.expected_alerts:
            ok, detail = check_expected_alert(expectation, self.riptide.alerts)
            results.append((expectation, ok, detail))
        return results

    @property
    def alerts_ok(self) -> bool:
        """True when every expected-alert contract held."""
        return all(ok for _, ok, _ in self.alert_assertion_results())

    def report(self) -> str:
        control, riptide = self.control, self.riptide
        rows = []
        for label, new_only in (("all probes", False), ("new connections", True)):
            control_times = self._times(self.control, new_only)
            riptide_times = self._times(self.riptide, new_only)
            if not control_times or not riptide_times:
                rows.append((label, len(control_times), len(riptide_times),
                             "-", "-", "-"))
                continue
            control_median = median(control_times)
            riptide_median = median(riptide_times)
            gain = (
                1.0 - riptide_median / control_median
                if control_median > 0
                else 0.0
            )
            rows.append(
                (
                    label,
                    len(control_times),
                    len(riptide_times),
                    f"{control_median * 1000:.0f}ms",
                    f"{riptide_median * 1000:.0f}ms",
                    f"{gain:+.0%}",
                )
            )
        table = format_table(
            ("population", "ctrl n", "riptide n", "ctrl median",
             "riptide median", "gain"),
            rows,
            title=f"Chaos study: {self.scenario.name}",
        )
        timeline = self.scenario.build(self.duration).describe()
        counters = (
            f"faults injected/cleared: {riptide.faults_injected}/"
            f"{riptide.faults_cleared}  guard trips: {riptide.guard_trips}  "
            f"crashes: {riptide.crashes}\n"
            f"poll failures: {riptide.poll_failures}  tool errors: "
            f"{riptide.tool_errors}  tool retries: {riptide.tool_retries}  "
            f"learned routes: {riptide.learned_routes}"
        )
        alert_lines = [
            f"SLO alerts (control arm): fired "
            f"{sum(1 for e in control.alerts if e.fired)}, resolved "
            f"{sum(1 for e in control.alerts if e.resolved)}",
            f"SLO alerts (riptide arm): fired "
            f"{sum(1 for e in riptide.alerts if e.fired)}, resolved "
            f"{sum(1 for e in riptide.alerts if e.resolved)}",
        ]
        for expectation, ok, detail in self.alert_assertion_results():
            status = "ok" if ok else "FAILED"
            alert_lines.append(
                f"  expected [riptide] {detail} -- {status}"
            )
        alerts_text = "\n".join(alert_lines)
        verdict = (
            "PASS: Riptide beats/matches the IW10 control under faults"
            if self.riptide_holds_up
            else "FAIL: Riptide is slower than the IW10 control under faults"
        )
        if self.scenario.expected_alerts and not self.alerts_ok:
            verdict += "; FAIL: expected SLO alerts did not materialise"
        return (
            f"{table}\n\nfault timeline ({self.duration:g}s of probing):\n"
            f"{timeline}\n\nriptide-arm resilience counters:\n{counters}\n"
            f"\n{alerts_text}\n\nverdict: {verdict}"
        )


def run_chaos_study(
    config: ChaosStudyConfig | None = None, workers: int = 1
) -> ChaosStudyResult:
    """Run control and Riptide arms under the same fault schedule.

    The result carries detached summaries whether the arms ran serially
    or in forked workers (:func:`~repro.experiments.scenarios.run_arm_pair`).
    """
    config = config if config is not None else ChaosStudyConfig()
    scenario = get_scenario(config.scenario)
    control, riptide = run_arm_pair(
        scenario.name, chaos_study_arms(config), workers
    )
    return ChaosStudyResult(
        scenario=scenario,
        duration=config.duration,
        control=control,
        riptide=riptide,
    )


def _scenario_runner(name: str):
    """A registry ``run`` callable pinned to one scenario."""

    def run(
        config: ChaosStudyConfig | None = None, workers: int = 1
    ) -> ChaosStudyResult:
        config = config if config is not None else ChaosStudyConfig()
        return run_chaos_study(replace(config, scenario=name), workers=workers)

    run.__doc__ = f"Run the {name} chaos scenario (control vs Riptide)."
    return run


run_lossy_agent = _scenario_runner("chaos_lossy_agent")
run_partition = _scenario_runner("chaos_partition")
run_flaky_tools = _scenario_runner("chaos_flaky_tools")
