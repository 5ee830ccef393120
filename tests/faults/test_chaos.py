"""End-to-end chaos scenarios: Riptide must hold up under faults."""

import pytest

from repro.experiments.chaos import ChaosStudyConfig, check_expected_alert, run_chaos_study
from repro.faults.scenarios import CHAOS_SCENARIOS, ExpectedAlert, get_scenario, scenario_names
from repro.obs.slo import AlertLog, BurnRateRule

FAST = ChaosStudyConfig(warmup=8.0, duration=30.0)


class TestScenarioRegistry:
    def test_scenarios_are_registered(self):
        names = scenario_names()
        assert "chaos_lossy_agent" in names
        assert "chaos_partition" in names
        assert "chaos_flaky_tools" in names

    def test_every_scenario_builds_a_valid_schedule(self):
        for name in scenario_names():
            scenario = get_scenario(name)
            schedule = scenario.build(90.0)
            assert len(schedule) >= 1
            assert all((spec.clear_at or spec.at) <= 90.0 for spec in schedule)
            assert scenario.source_pop in scenario.pop_codes
            assert scenario.target_pop in scenario.pop_codes

    def test_unknown_scenario_lists_alternatives(self):
        try:
            get_scenario("chaos_nope")
        except KeyError as error:
            assert "chaos_lossy_agent" in str(error)
        else:
            raise AssertionError("expected KeyError")

    def test_describe_covers_the_timeline(self):
        scenario = CHAOS_SCENARIOS["chaos_lossy_agent"]
        text = scenario.describe(90.0)
        assert "loss_storm" in text
        assert "agent_crash" in text


def _episodes(fired: int, resolved: int) -> tuple:
    """Hand-built retransmit_ratio episodes: fired-only plus resolved."""
    rule = BurnRateRule(
        severity="page", long_window=15.0, short_window=5.0, burn_factor=2.0
    )
    log = AlertLog(50_000)
    for index in range(fired):
        episode = log.begin(1.0, "retransmit_ratio", "page", "riptide:h", rule)
        episode.firing_at = 2.0
        if index < resolved:
            episode.resolved_at = 3.0
    return tuple(log.episodes())


class TestExpectedAlertContract:
    def test_lossy_agent_declares_fire_and_resolve_expectations(self):
        scenario = get_scenario("chaos_lossy_agent")
        by_slo = {e.slo: e for e in scenario.expected_alerts}
        assert set(by_slo) == {"retransmit_ratio", "guard_withdrawal_rate"}
        for expectation in by_slo.values():
            assert expectation.must_resolve

    def test_check_passes_when_fired_and_resolved(self):
        expectation = ExpectedAlert(slo="retransmit_ratio", must_resolve=True)
        ok, detail = check_expected_alert(expectation, _episodes(2, 1))
        assert ok
        assert "fired 2 episode(s), resolved 1" in detail

    def test_check_fails_when_never_fired(self):
        expectation = ExpectedAlert(slo="retransmit_ratio")
        ok, detail = check_expected_alert(expectation, _episodes(0, 0))
        assert not ok
        assert "never did" in detail

    def test_check_fails_when_fired_but_unresolved(self):
        expectation = ExpectedAlert(slo="retransmit_ratio", must_resolve=True)
        ok, detail = check_expected_alert(expectation, _episodes(1, 0))
        assert not ok
        assert "never resolved" in detail

    def test_check_ignores_other_slos(self):
        expectation = ExpectedAlert(slo="route_staleness")
        ok, _ = check_expected_alert(expectation, _episodes(3, 3))
        assert not ok


@pytest.fixture(scope="module")
def fast_study():
    """One ``run_chaos_study(FAST)``, shared by the tests that only read it."""
    return run_chaos_study(FAST)


class TestChaosEndToEnd:
    def test_lossy_agent_scenario_riptide_holds_up(self, fast_study):
        result = fast_study
        # Both arms saw the same fault schedule.
        assert result.control.faults_injected == result.riptide.faults_injected
        assert result.riptide.faults_injected >= 1
        # The resilience machinery demonstrably engaged: agents crashed,
        # polls failed, and the guard reverted hostile paths to IW10.
        assert result.riptide.crashes >= 1
        assert result.riptide.poll_failures >= 1
        assert result.riptide.guard_trips >= 1
        # Control agents never ran, so none of that happened there.
        assert result.control.crashes == 0
        assert result.control.guard_trips == 0
        # The deployment-safety verdict: Riptide still at least matches
        # the IW10 control under the storm.
        assert result.riptide_holds_up
        # The declared burn-rate alert contract holds: the loss storm
        # fires retransmit_ratio, the guard hold resolves it, and the
        # guard activity itself fires and resolves its own alert.
        assert result.alerts_ok
        for expectation, ok, detail in result.alert_assertion_results():
            assert ok, f"{expectation.slo}: {detail}"
        report = result.report()
        assert "chaos_lossy_agent" in report
        assert "PASS" in report
        assert "SLO alerts (riptide arm)" in report
        assert "expected [riptide]" in report

    def test_same_seed_is_bit_identical(self, fast_study):
        first = fast_study
        second = run_chaos_study(FAST)
        assert first.riptide.guard_trips == second.riptide.guard_trips
        assert (
            first.riptide.events_processed == second.riptide.events_processed
        )
        assert first.median_gain() == second.median_gain()
