"""Unit tests for the SLO engine: burn rates, lifecycle, alert report."""

import json

import pytest

from repro.obs.instrument import Instrumentation
from repro.obs.slo import (
    AlertLog,
    BurnRateRule,
    SloEngine,
    SloSignal,
    SloSpec,
    alert_report_to_json,
    alert_report_to_markdown,
    build_alert_report,
    default_burn_rules,
    default_slos,
    source_matches_arm,
)
from repro.obs.trace import EventType

#: One 'last'-signal spec with a whole-budget objective.
SPEC = SloSpec(
    name="sig_high",
    description="signal stays at or under 1",
    signal=SloSignal(kind="last", series="sig"),
    threshold=1.0,
    objective=1.0,
)


def make_engine(
    instrumentation: Instrumentation,
    *,
    rules: tuple[BurnRateRule, ...] | None = None,
    arm: str = "",
) -> SloEngine:
    """An engine over ``SPEC``."""
    if rules is None:
        rules = (
            BurnRateRule(
                severity="page", long_window=10.0, short_window=5.0, burn_factor=1.0
            ),
        )
    return SloEngine(
        instrumentation.tsdb,
        instrumentation.metrics,
        instrumentation.trace,
        instrumentation.spans,
        instrumentation.alerts,
        specs=(SPEC,),
        rules=rules,
        arm=arm,
    )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "max", "series": "x"},
            {"kind": "sum_ratio", "series": "x"},
            {"kind": "last", "series": "x", "denominator": "y"},
            {"kind": "last", "series": "x", "min_count": -1.0},
        ],
    )
    def test_bad_signal_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SloSignal(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"objective": 0.0},
            {"objective": 1.5},
            {"objective": float("nan")},
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        base = dict(
            name="s",
            description="",
            signal=SloSignal(kind="last", series="x"),
            threshold=1.0,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            SloSpec(**base)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"severity": ""},
            {"short_window": 0.0},
            {"long_window": 1.0, "short_window": 5.0},
            {"burn_factor": 0.0},
            {"for_duration": -1.0},
        ],
    )
    def test_bad_rule_rejected(self, kwargs):
        base = dict(
            severity="page", long_window=15.0, short_window=5.0, burn_factor=2.0
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            BurnRateRule(**base)

    def test_defaults_construct(self):
        assert len(default_slos()) == 4
        assert {rule.severity for rule in default_burn_rules()} == {"page", "ticket"}


class TestBurnRate:
    def test_bad_fraction_over_objective(self):
        obs = Instrumentation()
        engine = make_engine(obs)
        spec = SPEC
        obs.tsdb.record(1.0, "h", "sig", 2.0)  # window 0: bad
        obs.tsdb.record(6.0, "h", "sig", 0.5)  # window 1: good
        obs.tsdb.record(11.0, "h", "sig", 2.0)  # window 2: bad
        assert engine.burn_rate(spec, "h", 11.0, 10.0) == pytest.approx(2.0 / 3.0)
        assert engine.burn_rate(spec, "h", 11.0, 5.0) == pytest.approx(0.5)

    def test_empty_lookback_has_no_opinion(self):
        obs = Instrumentation()
        engine = make_engine(obs)
        assert engine.burn_rate(SPEC, "h", 11.0, 10.0) is None

    def test_windows_without_signal_are_skipped(self):
        obs = Instrumentation()
        engine = make_engine(obs)
        obs.tsdb.record(1.0, "h", "sig", 2.0)  # window 0 bad; 1-2 empty
        assert engine.burn_rate(SPEC, "h", 11.0, 10.0) == pytest.approx(1.0)


def drive_bad(obs: Instrumentation, times: tuple[float, ...]) -> None:
    for t in times:
        obs.tsdb.record(t, "h", "sig", 2.0)


class TestLifecycle:
    def test_pending_fires_immediately_without_dwell(self):
        obs = Instrumentation()
        engine = make_engine(obs)
        drive_bad(obs, (1.0, 6.0, 11.0))
        engine.evaluate(11.0)
        (episode,) = obs.alerts.episodes()
        assert episode.pending_at == 11.0
        assert episode.firing_at == 11.0
        assert episode.resolved_at is None
        assert [e for e in obs.trace.events() if e.type is EventType.ALERT_PENDING]
        assert [e for e in obs.trace.events() if e.type is EventType.ALERT_FIRING]
        assert obs.metrics.gauge("slo_alerts_firing").value == 1.0

    def test_firing_resolves_when_burn_clears(self):
        obs = Instrumentation()
        engine = make_engine(obs)
        drive_bad(obs, (1.0, 6.0, 11.0))
        engine.evaluate(11.0)
        obs.tsdb.record(16.0, "h", "sig", 0.5)
        obs.tsdb.record(21.0, "h", "sig", 0.5)
        engine.evaluate(21.0)
        (episode,) = obs.alerts.episodes()
        assert episode.resolved
        assert episode.resolved_at == 21.0
        assert episode.peak_burn >= 1.0
        assert [e for e in obs.trace.events() if e.type is EventType.ALERT_RESOLVED]
        (span,) = obs.spans.spans(category="alert")
        assert span.begin == 11.0 and span.end == 21.0
        assert obs.metrics.gauge("slo_alerts_firing").value == 0.0

    def test_dwell_keeps_alert_pending_until_for_duration(self):
        obs = Instrumentation()
        rules = (
            BurnRateRule(
                severity="ticket",
                long_window=10.0,
                short_window=5.0,
                burn_factor=1.0,
                for_duration=5.0,
            ),
        )
        engine = make_engine(obs, rules=rules)
        drive_bad(obs, (1.0, 6.0, 11.0, 16.0, 21.0))
        engine.evaluate(11.0)
        (episode,) = obs.alerts.episodes()
        assert episode.firing_at is None
        engine.evaluate(13.0)  # 2s into the dwell: still pending
        assert episode.firing_at is None
        engine.evaluate(16.0)  # dwell satisfied
        assert episode.firing_at == 16.0

    def test_pending_washout_is_silent(self):
        obs = Instrumentation()
        rules = (
            BurnRateRule(
                severity="ticket",
                long_window=10.0,
                short_window=5.0,
                burn_factor=1.0,
                for_duration=5.0,
            ),
        )
        engine = make_engine(obs, rules=rules)
        drive_bad(obs, (1.0, 6.0, 11.0))
        engine.evaluate(11.0)
        obs.tsdb.record(16.0, "h", "sig", 0.5)
        obs.tsdb.record(21.0, "h", "sig", 0.5)
        engine.evaluate(21.0)
        (episode,) = obs.alerts.episodes()
        assert not episode.fired
        assert episode.resolved_at == 21.0  # washout stamped on the episode
        assert not [e for e in obs.trace.events() if e.type is EventType.ALERT_FIRING]
        assert not [e for e in obs.trace.events() if e.type is EventType.ALERT_RESOLVED]
        assert obs.alerts.fired_count == 0

    def test_arm_filter_ignores_other_arms(self):
        obs = Instrumentation()
        engine = make_engine(obs, arm="riptide")
        for t in (1.0, 6.0, 11.0):
            obs.tsdb.record(t, "riptide:h", "sig", 2.0)
            obs.tsdb.record(t, "control:h", "sig", 2.0)
        engine.evaluate(11.0)
        sources = {e.source for e in obs.alerts.episodes()}
        assert sources == {"riptide:h"}

    def test_evaluations_counted(self):
        obs = Instrumentation()
        engine = make_engine(obs)
        engine.evaluate(1.0)
        engine.evaluate(2.0)
        assert obs.metrics.counter_value("slo_evaluations") == 2


class TestSourceMatchesArm:
    def test_labelled_arm(self):
        assert source_matches_arm("riptide:LHR-0", "riptide")
        assert source_matches_arm("riptide:LHR-0|10.0.0.0/16", "riptide")
        assert source_matches_arm("riptide", "riptide")
        assert not source_matches_arm("control:LHR-0", "riptide")

    def test_empty_arm_matches_only_unqualified(self):
        assert source_matches_arm("probes", "")
        assert not source_matches_arm("riptide:probes", "")


class TestAlertLog:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AlertLog(capacity=0)

    def test_drop_newest_past_capacity(self):
        log = AlertLog(capacity=1)
        rule = BurnRateRule(
            severity="page", long_window=10.0, short_window=5.0, burn_factor=1.0
        )
        assert log.begin(1.0, "s", "page", "h", rule) is not None
        assert log.begin(2.0, "s", "page", "h", rule) is None
        assert log.next_id == 2
        assert log.dropped == 1

    def test_merge_renumbers_ids_densely(self):
        rule = BurnRateRule(
            severity="page", long_window=10.0, short_window=5.0, burn_factor=1.0
        )
        first, second = AlertLog(50_000), AlertLog(50_000)
        first.begin(1.0, "s", "page", "h", rule)
        second.begin(2.0, "s", "page", "h", rule)
        second.begin(3.0, "s", "page", "h", rule)
        target = AlertLog(50_000)
        target.merge_from(first)
        target.merge_from(second)
        assert [e.alert_id for e in target.episodes()] == [0, 1, 2]
        assert target.next_id == 3


class TestAlertReport:
    def test_report_shape_and_json_round_trip(self):
        obs = Instrumentation()
        engine = make_engine(obs)
        drive_bad(obs, (1.0, 6.0, 11.0))
        engine.evaluate(11.0)
        report = build_alert_report(obs.alerts, experiment="unit")
        assert report["experiment"] == "unit"
        assert [row["slo"] for row in report["slos"]] == [s.name for s in default_slos()]
        (episode,) = report["episodes"]
        assert episode["slo"] == "sig_high"
        assert report["counts"]["fired"] == 1
        parsed = json.loads(alert_report_to_json(report))
        assert parsed == report

    def test_markdown_lists_episodes(self):
        obs = Instrumentation()
        engine = make_engine(obs)
        drive_bad(obs, (1.0, 6.0, 11.0))
        engine.evaluate(11.0)
        report = build_alert_report(obs.alerts)
        text = alert_report_to_markdown(report)
        assert "## Episodes" in text
        assert "| 0 | sig_high | page | h | 11.0 | 11.0 | - |" in text

    def test_markdown_without_alerts(self):
        report = build_alert_report(AlertLog(50_000))
        assert "_No alerts._" in alert_report_to_markdown(report)
