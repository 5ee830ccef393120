"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _normalize_experiment_id, main
from repro.experiments.registry import EXPERIMENTS, Experiment
from tests.hygiene.cli_options import CliOptionsUsed
from tests.hygiene.fields_set import FieldsSet
from tests.hygiene.functions_named import FunctionsNamed
from tests.hygiene.generated_methods import GeneratedMethods
from tests.hygiene.layers import LayersLoad
from tests.hygiene.modules_reached import ModulesReached
from tests.hygiene.parameters_set import ParametersSet
from tests.hygiene.reexports import ReexportsNothing
from tests.hygiene.serial_run import SerialRun
from tests.hygiene.stdlib_only import StdlibOnly


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("fig02", "fig10", "table2", "edge_cases"):
            assert experiment_id in out

    def test_marks_simulation_experiments(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "[simulation]" in out
        assert "[model" in out


class TestDescribe:
    def test_describe_prints_docstring(self, capsys):
        assert main(["describe", "fig05"]) == 0
        out = capsys.readouterr().out
        assert "125" in out
        assert "fig05" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["describe", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith('error: "unknown experiment')
        assert "Traceback" not in captured.err and captured.out == ""

    def test_accepts_harness_module_names(self, capsys):
        assert main(["describe", "fig10_cmax_sweep"]) == 0
        assert "id:          fig10\n" in capsys.readouterr().out

    def test_module_of_several_experiments_names_none(self, capsys):
        """``repro.experiments.chaos`` holds three experiments: ``chaos``
        is refused with the candidates, not resolved to the first."""
        assert main(["describe", "chaos"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        for candidate in ("chaos_lossy_agent", "chaos_partition", "chaos_flaky_tools"):
            assert candidate in captured.err


class TestRun:
    def test_run_model_experiment(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "completed in" in out

    def test_run_with_fast_flag(self, capsys):
        assert main(["run", "fig03", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestRunWorkers:
    def test_workers_forwarded_to_supporting_experiment(self, capsys, monkeypatch):
        seen = {}

        class _Result:
            def report(self):
                return "workers-report"

        def run(workers=1):
            seen["workers"] = workers
            return _Result()

        monkeypatch.setitem(
            EXPERIMENTS,
            "tiny_w",
            Experiment("tiny_w", "workers-aware", run, True, supports_workers=True),
        )
        assert main(["run", "tiny_w", "--workers", "3"]) == 0
        assert seen["workers"] == 3
        assert "workers-report" in capsys.readouterr().out

    def test_workers_noted_and_ignored_without_support(self, capsys, monkeypatch):
        class _Result:
            def report(self):
                return "serial-report"

        monkeypatch.setitem(
            EXPERIMENTS,
            "tiny_s",
            Experiment("tiny_s", "serial-only", lambda: _Result(), False),
        )
        assert main(["run", "tiny_s", "--workers", "4"]) == 0
        captured = capsys.readouterr()
        assert "running serially" in captured.err
        assert "serial-report" in captured.out


def _tiny_simulation():
    """A test-only simulation-backed experiment: one small transfer."""
    from repro.testing import TwoHostTestbed, request_response

    bed = TwoHostTestbed(rtt=0.050, bandwidth_bps=1e9)
    bed.serve_echo()
    request_response(bed, response_bytes=50_000)


@pytest.fixture
def tiny_experiment(monkeypatch):
    monkeypatch.setitem(
        EXPERIMENTS,
        "tiny",
        Experiment("tiny", "test-only transfer", _tiny_simulation, True),
    )


class TestMetrics:
    def test_metrics_captures_a_simulation_run(self, capsys, tiny_experiment):
        assert main(["metrics", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "tcp_connections_opened" in out
        assert "link_packets_delivered" in out
        assert "trace event totals" in out
        assert "conn_opened" in out

    def test_metrics_json_is_one_document(self, capsys, tiny_experiment):
        assert main(["metrics", "tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "tiny"
        metric_names = {row["metric"] for row in payload["metrics"]}
        assert "tcp_connections_opened" in metric_names
        assert payload["trace"]["totals"]["conn_opened"] >= 1

    def test_metrics_json_is_the_encoding_of_the_assembled_payload(
        self, capsys, tiny_experiment
    ):
        """Stdout, byte for byte, is one ``json.dumps`` of the wrapper dict."""
        from repro.analysis.export import metrics_to_json, trace_to_json
        from repro.obs.instrument import capture

        assert main(["metrics", "tiny", "--json"]) == 0
        printed = capsys.readouterr().out
        with capture() as instrumentation:
            _tiny_simulation()
        payload = {
            "experiment": "tiny",
            "metrics": json.loads(metrics_to_json(instrumentation.metrics)),
            "trace": json.loads(trace_to_json(instrumentation.trace)),
        }
        assert payload["metrics"] and payload["trace"]["events"]
        assert printed == json.dumps(payload, indent=2) + "\n"

    def test_metrics_json_of_a_run_that_records_nothing(self, capsys):
        """Empty stores splice as ``[]`` and ``{}``, not as open brackets."""
        assert main(["metrics", "table2", "--json"]) == 0
        payload = {
            "experiment": "table2",
            "metrics": [],
            "trace": {
                "recorded": 0, "retained": 0, "dropped": 0, "totals": {}, "events": [],
            },
        }
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_metrics_csv_written(self, capsys, tiny_experiment, tmp_path):
        target = tmp_path / "metrics.csv"
        assert main(["metrics", "tiny", "--csv", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "kind,metric,labels,field,value"
        assert any("tcp_connections_opened" in line for line in lines[1:])

    def test_metrics_warns_on_trace_truncation(self, capsys, monkeypatch):
        from repro.obs.trace import EventType

        def noisy():
            from repro.obs.instrument import active_instrumentation

            trace = active_instrumentation().trace
            for i in range(trace.capacity + 5):
                trace.record(float(i), EventType.CONN_OPENED, "x")

        monkeypatch.setitem(
            EXPERIMENTS,
            "noisy",
            Experiment("noisy", "test-only trace flood", noisy, False),
        )
        assert main(["metrics", "noisy"]) == 0
        err = capsys.readouterr().err
        assert "warning: trace ring dropped 5" in err

    def test_metrics_model_experiment_has_no_instruments(self, capsys):
        assert main(["metrics", "table2"]) == 0
        out = capsys.readouterr().out
        assert "no metrics registered" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["metrics", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_prom_text_exposition(self, capsys, tiny_experiment):
        assert main(["metrics", "tiny", "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE tcp_connections_opened counter" in out
        assert "tcp_connections_opened 2" in out
        assert out.endswith("\n")

    def test_json_and_prom_are_exclusive(self, capsys, tiny_experiment):
        assert main(["metrics", "tiny", "--json", "--prom"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_accepts_harness_module_names(self):
        assert _normalize_experiment_id("fig10_cmax_sweep") == "fig10"
        assert _normalize_experiment_id("fig10") == "fig10"
        assert _normalize_experiment_id("nope") == "nope"


class TestFlowsVerb:
    def test_flows_summary_of_a_simulation_run(self, capsys, tiny_experiment):
        assert main(["flows", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "flow records: tiny" in out
        # One transfer = two records, one per socket side.
        assert "recorded: 2" in out
        assert "initial cwnd source: default=2" in out

    def test_flows_json_lists_every_record(self, capsys, tiny_experiment):
        assert main(["flows", "tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recorded"] == 2
        sides = {flow["is_client"] for flow in payload["flows"]}
        assert sides == {True, False}
        for flow in payload["flows"]:
            assert flow["established_at"] is not None
            assert flow["syn_rtt"] > 0

    def test_flows_jsonl_written(self, capsys, tiny_experiment, tmp_path):
        target = tmp_path / "flows.jsonl"
        assert main(["flows", "tiny", "--jsonl", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["flow_id"] == 0

    def test_time_window_filters_records(self, capsys, tiny_experiment):
        # The client flow opens at t=0, the server side ~one half-RTT
        # later; an --until between the two keeps only the first.  Both
        # stay open to the end of the run, so --since never drops them.
        assert main(["flows", "tiny", "--json", "--until", "0.01"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recorded"] == 2
        assert payload["selected"] == 1
        assert [f["flow_id"] for f in payload["flows"]] == [0]

    def test_time_window_noted_in_summary(self, capsys, tiny_experiment):
        assert main(["flows", "tiny", "--since", "0", "--until", "999"]) == 0
        out = capsys.readouterr().out
        assert "window [0.0, 999.0]s: 2 flows" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["flows", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestReportVerb:
    def test_report_renders_the_cause_taxonomy(self, capsys, tiny_experiment):
        assert main(["report", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Tail-latency attribution: tiny" in out
        assert "genuinely_fast_path" in out
        assert "flows: 2 recorded" in out

    def test_report_json_and_artifacts(self, capsys, tiny_experiment, tmp_path):
        out_path = tmp_path / "report.json"
        spans_path = tmp_path / "spans.json"
        timeline_path = tmp_path / "timeline.csv"
        assert (
            main(
                [
                    "report",
                    "tiny",
                    "--json",
                    "--out",
                    str(out_path),
                    "--spans",
                    str(spans_path),
                    "--timeline-csv",
                    str(timeline_path),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "tiny"
        assert json.loads(out_path.read_text()) == payload
        chrome = json.loads(spans_path.read_text())
        assert "traceEvents" in chrome
        assert timeline_path.read_text().startswith("time,source,series,value")

    def test_time_window_recorded_in_report(self, capsys, tiny_experiment):
        assert main(["report", "tiny", "--json", "--until", "999"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["window"] == {"since": None, "until": 999.0}
        assert payload["alerts"]["fired"] == 0

    def test_unknown_experiment_errors(self, capsys):
        assert main(["report", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "capacities, retained, saturated",
        [
            (
                dict(
                    TRACE_CAPACITY=5,
                    FLOW_CAPACITY=5,
                    SPAN_CAPACITY=5,
                    TIMELINE_CAPACITY=5,
                    TSDB_CAPACITY=5,
                ),
                5,
                {"trace ring", "flow log", "span log", "timeline", "tsdb"},
            ),
            # On its own: the SLO engine reads the stores above, and raises
            # nothing from five samples.
            (dict(ALERT_CAPACITY=1), 1, {"alert log"}),
        ],
    )
    def test_every_saturated_store_is_named_on_stderr(
        self, capsys, monkeypatch, capacities, retained, saturated
    ):
        import repro.cli as cli
        import repro.obs.instrument as instrument
        from repro.experiments.chaos import ChaosStudyConfig, run_lossy_agent

        def short_chaos():
            return run_lossy_agent(ChaosStudyConfig(warmup=2.0, duration=12.0))

        monkeypatch.setitem(
            EXPERIMENTS,
            "short_chaos",
            Experiment("short_chaos", "test-only chaos study", short_chaos, False),
        )
        capacities = dict(capacities)
        trace = capacities.pop("TRACE_CAPACITY", instrument.TRACE_CAPACITY)
        for name, value in capacities.items():
            monkeypatch.setattr(instrument, name, value)
        monkeypatch.setattr(cli, "capture", lambda: instrument.capture(trace_capacity=trace))
        assert main(["report", "short_chaos", "--json"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is still exactly the report
        warnings = [
            line.removeprefix("warning: ")
            for line in captured.err.splitlines()
            if line.startswith("warning: ")
        ]
        assert {line.split(" dropped ")[0] for line in warnings} == saturated
        assert all(line.endswith(f"(retained {retained})") for line in warnings)


class TestAlertsVerb:
    def test_markdown_report_by_default(self, capsys, tiny_experiment):
        assert main(["alerts", "tiny"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# SLO alert report")
        assert "_No alerts._" in out

    def test_json_and_out_agree(self, capsys, tiny_experiment, tmp_path):
        target = tmp_path / "alerts.json"
        assert main(["alerts", "tiny", "--json", "--out", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "tiny"
        assert payload["counts"]["fired"] == 0
        assert {row["slo"] for row in payload["slos"]} == {
            "probe_latency_p90",
            "retransmit_ratio",
            "guard_withdrawal_rate",
            "route_staleness",
        }
        assert json.loads(target.read_text()) == payload

    def test_markdown_artifact_written(self, capsys, tiny_experiment, tmp_path):
        target = tmp_path / "alerts.md"
        assert main(["alerts", "tiny", "--markdown", str(target)]) == 0
        assert "# SLO alert report" in target.read_text()

    def test_check_requires_a_fault_scenario(self, capsys, tiny_experiment):
        assert main(["alerts", "tiny", "--check"]) == 2
        captured = capsys.readouterr()
        assert "fault scenario" in captured.err
        # Refused before anything is simulated or printed.
        assert "under alert capture" not in captured.err
        assert captured.out == ""

    def test_unknown_experiment_errors(self, capsys):
        assert main(["alerts", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestWatchVerb:
    def test_renders_one_line_per_frame(self, capsys, tiny_experiment):
        assert main(["watch", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "== watch: tiny (1 frames) ==" in out
        assert "alerts: 0p/0f" in out

    def test_json_frames(self, capsys, tiny_experiment):
        assert main(["watch", "tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "tiny"
        assert payload["frames"]
        assert payload["frames"][0]["index"] == 0

    def test_rejects_bad_speed(self, capsys, tiny_experiment):
        for flag, value in (
            ("--speed", "-1"),
            ("--speed", "inf"),
        ):
            _assert_refused(capsys, ["watch", "tiny", flag, value], flag)


class TestFaultsVerb:
    def test_lists_every_scenario_with_its_timeline(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "chaos_lossy_agent" in out
        assert "chaos_partition" in out
        assert "chaos_flaky_tools" in out
        assert "loss_storm" in out  # timelines are rendered
        assert "run <scenario>" in out  # usage hint

    def test_duration_scales_the_timeline(self, capsys):
        assert main(["faults", "--duration", "45"]) == 0
        out = capsys.readouterr().out
        assert "timeline over 45s" in out

    @pytest.mark.parametrize("duration", ["0", "-5", "nan", "inf"])
    def test_rejects_non_positive_duration(self, capsys, duration):
        _assert_refused(capsys, ["faults", "--duration", duration], "--duration")


class TestRunFaults:
    def test_runs_the_scenario_and_prints_the_report(
        self, capsys, monkeypatch
    ):
        import repro.experiments.chaos as chaos

        calls = {}

        class _Result:
            def report(self):
                return "chaos-report"

        def fake_run(config, workers=1):
            calls["config"] = config
            calls["workers"] = workers
            return _Result()

        monkeypatch.setattr(chaos, "run_chaos_study", fake_run)
        assert main(["run", "chaos_partition", "--fast", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos-report" in out
        assert calls["config"].scenario == "chaos_partition"
        assert calls["config"].duration == 30.0  # the --fast preset
        assert calls["workers"] == 2

    def test_unknown_scenario_errors(self, capsys):
        assert main(["run", "chaos_nope"]) == 2
        err = capsys.readouterr().err
        assert "chaos_lossy_agent" in err  # alternatives are listed


def _assert_refused(capsys, argv, flag):
    """``argv`` exits 2 naming ``flag``, before any work is started."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: must be" in captured.err
    assert captured.out == ""
    assert "running" not in captured.err


class TestNumericFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "fig03", "--workers", "-4"], "--workers"),
            (["run", "fig03", "--workers", "0"], "--workers"),
            (["tournament", "--fast", "--workers", "0"], "--workers"),
            (["metrics", "tiny", "--workers", "two"], "--workers"),
            (["flows", "tiny", "--since", "nan"], "--since"),
            (["report", "tiny", "--until", "inf"], "--until"),
            (["flows", "tiny", "--since", "40", "--until", "10"], "--since"),
            (["report", "tiny", "--since", "40", "--until", "10"], "--since"),
        ],
    )
    def test_bad_value_exits_2_before_any_work(self, capsys, tiny_experiment, argv, flag):
        _assert_refused(capsys, argv, flag)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["tournament", "--fast"], "--out"),
            (["tournament", "--fast"], "--markdown"),
            (["metrics", "tiny"], "--csv"),
            (["flows", "tiny"], "--jsonl"),
            (["report", "tiny"], "--out"),
            (["report", "tiny"], "--spans"),
            (["report", "tiny"], "--timeline-csv"),
            (["alerts", "tiny"], "--out"),
            (["alerts", "tiny"], "--markdown"),
        ],
    )
    def test_artifact_path_is_checked_before_the_run(
        self, capsys, tiny_experiment, tmp_path, argv, flag
    ):
        _assert_refused(capsys, [*argv, flag, str(tmp_path / "missing" / "x")], flag)
        _assert_refused(capsys, [*argv, flag, str(tmp_path)], flag)


class TestImportHygiene(
    StdlibOnly,
    SerialRun,
    GeneratedMethods,
    ModulesReached,
    CliOptionsUsed,
    ReexportsNothing,
    FieldsSet,
    ParametersSet,
    FunctionsNamed,
    LayersLoad,
):
    """The import hygiene and reachability checks.  Each lives in
    ``tests/hygiene/`` in a file of its own, beside its allowlist; they
    are collected here, under the ids they have always had, and ``make
    cold-start`` selects them with ``-k TestImportHygiene``.
    """
