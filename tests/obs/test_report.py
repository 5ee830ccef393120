"""Tests for the tail-latency attribution report.

The synthetic cases build one slow probe per cause and check the
priority chain assigns exactly that cause; the integration case runs a
small real study and checks every above-p90 probe comes back attributed.
"""

import json

from repro.obs.instrument import Instrumentation
from repro.obs.report import ATTRIBUTION_CAUSES, build_report, render_report, report_to_json
from repro.obs.trace import EventType

ARM = "riptide"
CLIENT = "10.0.0.2"
DEST = "10.5.0.1"
CLIENT_PORT = 40_000


def add_probe(
    obs,
    begin,
    duration,
    arm=ARM,
    client_port=CLIENT_PORT,
    new_connection=True,
    cwnd_source="default",
):
    span = obs.spans.begin(
        begin,
        "probe LHR->JFK 100KB",
        "probe",
        f"{arm}:LHR-1",
        arm=arm,
        src_pop="LHR",
        dst_pop="JFK",
        size=100_000,
        client=CLIENT,
        dest=DEST,
        bucket="100-150ms",
    )
    obs.spans.end(
        span,
        begin + duration,
        completed=True,
        new_connection=new_connection,
        initial_cwnd=10,
        cwnd_source=cwnd_source,
        client_port=client_port,
    )
    return span


def scenario(arm=ARM, **slow_kwargs):
    """Five fast probes and one slow one: p90 lands on the fast value."""
    obs = Instrumentation()
    for index in range(5):
        add_probe(obs, 100.0 + index, 0.1, arm=arm, client_port=50_000 + index)
    slow = add_probe(obs, 10.0, 2.0, arm=arm, **slow_kwargs)
    return obs, slow


def the_cause(report):
    assert len(report["slow_probes"]) == 1
    return report["slow_probes"][0]["cause"]


class TestAttributionCauses:
    def test_guard_withdrawal_wins_over_everything(self):
        obs, _ = scenario()
        obs.spans.begin(
            9.0,
            "guard-hold 10.0.0.0/16",
            "guard",
            f"{ARM}:JFK-0",
            destination="10.0.0.0/16",
            reason="rtt_regression",
            window=40,
            hold=30.0,
        )
        # A storm too: the guard must still win (priority order).
        obs.spans.begin(
            9.0, "loss storm", "fault", "fault-injector", kind="loss_storm", pop="JFK"
        )
        report = build_report(obs)
        assert the_cause(report) == "guard_withdrawal"
        evidence = report["slow_probes"][0]["evidence"]
        assert evidence["guard_destination"] == "10.0.0.0/16"

    def test_guard_on_another_pop_does_not_match(self):
        obs, _ = scenario()
        obs.spans.begin(
            9.0,
            "guard-hold 10.0.0.0/16",
            "guard",
            f"{ARM}:NRT-0",  # wrong destination PoP
            destination="10.0.0.0/16",
            reason="rtt_regression",
        )
        report = build_report(obs)
        assert the_cause(report) == "genuinely_fast_path"

    def test_route_not_yet_learned_needs_default_server_window(self):
        obs, _ = scenario()
        obs.flows.begin(
            host=f"{ARM}:JFK-0",
            local=DEST,
            local_port=8080,
            remote=CLIENT,
            remote_port=CLIENT_PORT,
            opened_at=10.0,
            is_client=False,
            initial_cwnd=10,
            cwnd_source="default",
        )
        report = build_report(obs)
        assert the_cause(report) == "route_not_yet_learned"
        assert report["slow_probes"][0]["server_cwnd_source"] == "default"

    def test_control_arm_never_blames_missing_routes(self):
        obs, _ = scenario(arm="control")
        obs.flows.begin(
            host="control:JFK-0",
            local=DEST,
            local_port=8080,
            remote=CLIENT,
            remote_port=CLIENT_PORT,
            opened_at=10.0,
            is_client=False,
            initial_cwnd=10,
            cwnd_source="default",
        )
        report = build_report(obs)
        assert the_cause(report) == "genuinely_fast_path"

    def test_loss_storm_on_either_end_pop(self):
        obs, _ = scenario(new_connection=False, cwnd_source="route")
        obs.spans.begin(
            9.5, "loss storm", "fault", "fault-injector", kind="loss_storm", pop="JFK"
        )
        report = build_report(obs)
        assert the_cause(report) == "loss_storm"

    def test_non_overlapping_storm_is_ignored(self):
        obs, _ = scenario(new_connection=False)
        storm = obs.spans.begin(
            0.0, "loss storm", "fault", "fault-injector", kind="loss_storm", pop="JFK"
        )
        obs.spans.end(storm, 5.0)  # over before the slow probe begins
        report = build_report(obs)
        assert the_cause(report) == "genuinely_fast_path"

    def test_rto_stall_from_client_side_trace(self):
        obs, _ = scenario(new_connection=False)
        obs.trace.record(
            11.0,
            EventType.RTO_FIRED,
            f"{ARM}:LHR-1",
            remote=DEST,
            port=CLIENT_PORT,
        )
        report = build_report(obs)
        assert the_cause(report) == "rto_stall"
        assert report["slow_probes"][0]["evidence"]["rtos"] == 1

    def test_rto_stall_from_server_side_flow(self):
        obs, _ = scenario(new_connection=False)
        obs.flows.begin(
            host=f"{ARM}:JFK-0",
            local=DEST,
            local_port=8080,
            remote=CLIENT,
            remote_port=CLIENT_PORT,
            opened_at=10.0,
            is_client=False,
            initial_cwnd=40,
            cwnd_source="route",
        )
        obs.trace.record(
            11.0,
            EventType.FAST_RETRANSMIT,
            f"{ARM}:JFK-0",
            remote=CLIENT,
            remote_port=CLIENT_PORT,
        )
        report = build_report(obs)
        assert the_cause(report) == "rto_stall"
        assert report["slow_probes"][0]["evidence"]["fast_retransmits"] == 1

    def test_fallback_is_genuinely_fast_path(self):
        obs, _ = scenario(new_connection=False)
        report = build_report(obs)
        assert the_cause(report) == "genuinely_fast_path"


class TestReportShape:
    def test_counts_and_arms(self):
        obs, _ = scenario()
        report = build_report(obs, experiment="synthetic")
        assert report["experiment"] == "synthetic"
        assert report["probes"]["total"] == 6
        assert report["probes"]["completed"] == 6
        assert report["arms"][ARM]["slow"] == 1
        assert sum(report["causes"].values()) == 1
        assert tuple(report["causes"]) == ATTRIBUTION_CAUSES

    def test_failed_and_incomplete_probes_counted(self):
        obs, _ = scenario()
        failed = obs.spans.begin(
            0.0, "probe", "probe", f"{ARM}:LHR-1", arm=ARM, client=CLIENT, dest=DEST
        )
        obs.spans.end(failed, 1.0, completed=False, failed="timeout")
        obs.spans.begin(
            0.0, "probe", "probe", f"{ARM}:LHR-1", arm=ARM, client=CLIENT, dest=DEST
        )
        report = build_report(obs)
        assert report["probes"]["failed"] == 1
        assert report["probes"]["incomplete"] == 1

    def test_a_window_counts_every_probe_state_over_its_probes(self):
        """Completed probes sit at t=10-12 and t=100-104; one probe fails
        at t=50-51 and one opened at t=0 never ends."""
        obs, _ = scenario()
        failed = obs.spans.begin(
            50.0, "probe", "probe", f"{ARM}:LHR-1", arm=ARM, client=CLIENT, dest=DEST
        )
        obs.spans.end(failed, 51.0, completed=False, failed="timeout")
        obs.spans.begin(
            0.0, "probe", "probe", f"{ARM}:LHR-1", arm=ARM, client=CLIENT, dest=DEST
        )
        windows = {
            (None, 20.0): {"total": 2, "completed": 1, "failed": 0, "incomplete": 1},
            (40.0, 60.0): {"total": 2, "completed": 0, "failed": 1, "incomplete": 1},
            (90.0, None): {"total": 6, "completed": 5, "failed": 0, "incomplete": 1},
        }
        for (since, until), expected in windows.items():
            assert build_report(obs, since=since, until=until)["probes"] == expected

    def test_json_round_trips_and_render_mentions_causes(self):
        obs, _ = scenario()
        report = build_report(obs, experiment="synthetic")
        assert json.loads(report_to_json(report)) == report
        text = render_report(report)
        assert "Tail-latency attribution: synthetic" in text
        for cause in ATTRIBUTION_CAUSES:
            assert cause in text

    def test_render_warns_on_trace_truncation(self):
        obs = Instrumentation(trace_capacity=1)
        add_probe(obs, 0.0, 0.1)
        obs.trace.record(0.0, EventType.CONN_OPENED, "a")
        obs.trace.record(1.0, EventType.CONN_OPENED, "a")
        text = render_report(build_report(obs))
        assert "WARNING: trace ring dropped 1" in text


class TestIntegration:
    def test_every_slow_probe_of_a_real_study_is_attributed(self):
        from repro.experiments.scenarios import ProbeStudyConfig, run_paired_probe_study
        from repro.obs.instrument import capture

        config = ProbeStudyConfig(
            topology_codes=("LHR", "JFK", "NRT"),
            warmup=2.0,
            duration=12.0,
            probe_interval=4.0,
        )
        with capture() as obs:
            run_paired_probe_study(config)
        report = build_report(obs, experiment="probe-study")
        assert sorted(report["arms"]) == ["control", "riptide"]
        assert report["probes"]["completed"] > 0
        total_slow = sum(stats["slow"] for stats in report["arms"].values())
        assert len(report["slow_probes"]) == total_slow
        assert sum(report["causes"].values()) == total_slow
        for entry in report["slow_probes"]:
            assert entry["cause"] in ATTRIBUTION_CAUSES
        assert report["flows"]["recorded"] > 0
        assert report["timeline"]["retained"] > 0
