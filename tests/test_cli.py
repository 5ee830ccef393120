"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import _normalize_experiment_id, main
from repro.experiments.registry import EXPERIMENTS, Experiment


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
        assert "sim_events_processed" in out
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
                    trace_capacity=5,
                    flow_capacity=5,
                    span_capacity=5,
                    timeline_capacity=5,
                    tsdb_capacity=5,
                ),
                5,
                {"trace ring", "flow log", "span log", "timeline", "tsdb"},
            ),
            # On its own: the SLO engine reads the stores above, and raises
            # nothing from five samples.
            (dict(alert_capacity=1), 1, {"alert log"}),
        ],
    )
    def test_every_saturated_store_is_named_on_stderr(
        self, capsys, monkeypatch, capacities, retained, saturated
    ):
        import repro.cli as cli
        from repro.experiments.chaos import ChaosStudyConfig, run_lossy_agent
        from repro.obs.instrument import capture

        def short_chaos():
            return run_lossy_agent(ChaosStudyConfig(warmup=2.0, duration=12.0))

        monkeypatch.setitem(
            EXPERIMENTS,
            "short_chaos",
            Experiment("short_chaos", "test-only chaos study", short_chaos, False),
        )
        monkeypatch.setattr(cli, "capture", lambda: capture(**capacities))
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


def _fresh_interpreter(probe: str, *argv: str) -> str:
    """Run ``probe`` in a new interpreter with ``src/`` on the path; its stdout."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return result.stdout


#: Directories whose top-level scripts are shipped entry points, beside
#: ``repro/__main__.py``; ``tests/`` and ``bench/tests`` are not.
_ENTRY_DIRECTORIES = ("examples", "benchmarks", "bench")

#: Defaulted dataclass fields that no shipped file sets to a non-default
#: value, each kept for the reason given.  Any other such field is a knob
#: nobody turns: delete it, or ship an entry point that sets it.
_NEVER_SET_FIELDS = {
    "RiptideConfig.c_min": "a Table I parameter of the paper's agent",
    "TcpConfig.delayed_ack": "the packet-path golden cells and the slow-start "
    "oracle set it, and the connection close matrix needs it",
    "TcpConfig.rmem_max_bytes": "the receive-memory ceiling that Section III-C "
    "names as the bound on receive-window growth",
}


def _shipped_trees():
    """``src/repro``'s directory and the parsed tree of every shipped file:
    the package itself and the top-level scripts of ``_ENTRY_DIRECTORIES``.
    """
    import ast
    from pathlib import Path

    package_dir = Path(repro.__file__).parent
    repo = package_dir.parent.parent
    shipped = list(package_dir.rglob("*.py"))
    for directory in _ENTRY_DIRECTORIES:
        shipped += (repo / directory).glob("*.py")
    return package_dir, {path: ast.parse(path.read_text()) for path in shipped}


#: Defaulted function and method parameters that no shipped file passes a
#: non-default value, each kept for the reason given.  Any other such
#: parameter is a knob nobody turns: delete it with the branch it selects,
#: make it a module constant, or ship an entry point that sets it.
_NEVER_SET_PARAMETERS = {
    "cli.main(argv)": "how the CLI is driven in-process; `python -m repro` "
    "leaves it to argparse to read sys.argv",
    "linux.ip_tool.IpRouteTool.route_add(initcwnd)": "the `ip route add ... "
    "initcwnd N` row of PAPER.md's mechanism table",
    "linux.ip_tool.IpRouteTool.route_add(initrwnd)": "the per-route `initrwnd` "
    "of PAPER.md's mechanism table, the receive-side half of a jump-start",
    "linux.ip_tool.IpRouteTool.route_replace(initrwnd)": "the per-route "
    "`initrwnd` of PAPER.md's mechanism table, on the verb the agent uses",
}


#: Where a CLI option counts as used: the example scripts, the Makefile,
#: the CI workflows and the user documentation.
_OPTION_USE_GLOBS = (
    "examples/*.py",
    "Makefile",
    ".github/workflows/*.yml",
    "README.md",
    "docs/**/*.md",
)

#: ``verb --option`` pairs that no file of ``_OPTION_USE_GLOBS`` uses,
#: each kept for the reason given.
_UNUSED_OPTIONS: dict[str, str] = {}


#: How many methods ``dataclasses`` may generate on ``repro`` classes while
#: a process imports what ``bench/workloads.py`` imports.  Each one is an
#: ``exec`` and a compile paid on every start; a class gets the generated
#: machinery its callers use and no more (ARCHITECTURE, "When a class is a
#: dataclass").
_GENERATED_METHOD_CEILING = 107

#: Prints ``<methods> <classes>``: the methods ``dataclasses`` generated on
#: ``repro`` classes after importing ``bench/workloads.py``'s ``repro``
#: imports (read from its source) in this interpreter.  A method counts
#: when its code was compiled from ``<string>``, or its ``__wrapped__``
#: code was (how ``__repr__`` is generated).
_GENERATED_METHODS_PROBE = """
import ast, importlib, pathlib, sys
tree = ast.parse(pathlib.Path(sys.argv[1]).read_text())
for node in ast.walk(tree):
    if isinstance(node, ast.ImportFrom) and node.module.startswith("repro"):
        for alias in node.names:
            try:
                importlib.import_module(f"{node.module}.{alias.name}")
            except ModuleNotFoundError:
                importlib.import_module(node.module)

def generated(value):
    code = getattr(value, "__code__", None)
    wrapped = getattr(getattr(value, "__wrapped__", None), "__code__", None)
    return any(c is not None and c.co_filename == "<string>" for c in (code, wrapped))

methods = classes = 0
for name, module in list(sys.modules.items()):
    if name != "repro" and not name.startswith("repro."):
        continue
    pending = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == name]
    while pending:
        cls = pending.pop()
        pending += [v for v in vars(cls).values() if isinstance(v, type) and v.__module__ == name]
        count = sum(generated(v) for v in vars(cls).values())
        methods += count
        classes += count > 0
print(methods, classes)
"""


def _assigns_all(node) -> bool:
    """Whether an ``ast.Assign`` binds ``__all__``."""
    return any(getattr(target, "id", None) == "__all__" for target in node.targets)


def _identifiers(node):
    """Every identifier ``node`` names: names, attributes, imported names,
    call keywords and identifier-shaped strings (``getattr`` targets,
    ``bench/tracer.py``'s patch tables).
    """
    import ast

    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.split(".")[-1]
            if sub.asname:
                yield sub.asname
        elif isinstance(sub, ast.keyword) and sub.arg:
            yield sub.arg
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                yield sub.value


#: Names a package ``__init__`` re-exports, by package, kept for the
#: reason given.  Import any other name from the module that defines it.
_REEXPORTED_NAMES = {
    # `bench/workloads.py` imports these eight from the package, and the
    # benchmark's files are not edited alongside the program.
    "repro.obs": [
        "Instrumentation", "alert_report_to_json", "build_alert_report", "build_report",
        "capture", "disabled", "render_report", "report_to_json",
    ],
}

#: Functions and methods that no shipped file names, each kept for the
#: reason given.  Any other such function is code only tests reach: delete
#: it, or ship an entry point that calls it.
_UNNAMED_FUNCTIONS = {
    "model.slowstart.rounds_schedule": "the per-round window list that "
    "tests/model/test_slowstart.py checks rtts_to_complete against",
    "linux.ip_tool.IpRouteTool.route_get": "kept by the reachability pass "
    "(EXPERIMENTS.md): 18 tests in 5 files assert routes through it",
    "policy.tunable.TunablePolicy.set_knob": "kept by the reachability pass "
    "(EXPERIMENTS.md): the surface deferred TCPTuner-style tuning calls",
    "tcp.socket.TcpSocket.abort": "tests/tcp/test_close_matrix.py drives `abort()` "
    "in ESTABLISHED, FIN_WAIT_2 and CLOSE_WAIT",
}


def _generated_dataclass_methods() -> tuple[int, int]:
    """``(methods, classes)`` of ``_GENERATED_METHODS_PROBE``, run fresh."""
    workloads = os.path.join(os.path.dirname(repro.__file__), "..", "..", "bench", "workloads.py")
    methods, classes = _fresh_interpreter(_GENERATED_METHODS_PROBE, workloads).split()
    return int(methods), int(classes)


class TestImportHygiene:
    def test_importing_the_cli_loads_only_the_stdlib_and_repro(self):
        """``pyproject.toml`` declares no dependencies; hold the CLI to it.

        Run in a fresh interpreter, diffing ``sys.modules`` around the
        import so whatever ``site`` preloads is not counted.
        """
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import repro.cli\n"
            "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "allowed = sys.stdlib_module_names | {'repro'}\n"
            "print(' '.join(sorted(loaded - allowed)))\n"
        )
        assert _fresh_interpreter(probe).strip() == ""

    def test_a_serial_run_loads_neither_the_fork_pool_nor_the_registry(self):
        """Import what ``bench/workloads.py`` imports, run two tasks with
        ``workers=1``, and list which of the fork machinery and the
        experiment registry (which loads every harness) came along.
        """
        watched = [
            "multiprocessing",
            "pickle",
            "queue",
            "repro.experiments.registry",
            "repro.experiments.tournament",
        ]
        probe = (
            "import sys\n"
            "import repro.analysis.export, repro.testing\n"
            "import repro.experiments.chaos, repro.experiments.hybrid\n"
            "from repro.parallel.executor import run_tasks\n"
            "assert run_tasks([int, float], workers=1) == [0, 0.0]\n"
            f"print(' '.join(name for name in {watched!r} if name in sys.modules))\n"
        )
        assert _fresh_interpreter(probe).split() == []

    def test_the_bench_import_set_generates_at_most_N_dataclass_methods(self):
        """N is ``_GENERATED_METHOD_CEILING``: the ``dataclasses`` code
        generation a benchmark child pays before it simulates anything.
        ``make cold-start`` prints both counts.
        """
        methods, classes = _generated_dataclass_methods()
        assert methods <= _GENERATED_METHOD_CEILING, (methods, classes)

    def test_every_module_is_reached_from_a_shipped_entry_point(self):
        """``src/repro`` holds only what ``repro.cli``, an example, a figure
        benchmark or ``bench/`` imports, directly or transitively.

        The closure is computed with ``ast`` (imports inside functions
        count, nothing is executed) from ``repro/__main__.py``,
        ``examples/*.py``, ``benchmarks/*.py`` and ``bench/*.py``;
        ``bench/tests`` and ``tests/`` are not entry points.  A module
        only tests import belongs under ``tests/`` or nowhere.
        """
        import ast
        from pathlib import Path

        package_dir = Path(repro.__file__).parent
        repo = package_dir.parent.parent
        modules = {}
        for path in package_dir.rglob("*.py"):
            parts = path.relative_to(package_dir.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modules[".".join(parts)] = path

        def imported_modules(path):
            found = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    found.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    assert node.level == 0, f"relative import in {path}"
                    found.add(node.module)
                    # `from repro.cdn import fluidtraffic` names a submodule.
                    found.update(f"{node.module}.{alias.name}" for alias in node.names)
            reached = set()
            for name in found & modules.keys():
                parts = name.split(".")
                reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
            return reached

        pending = {"repro.__main__"}
        for directory in _ENTRY_DIRECTORIES:
            for path in (repo / directory).glob("*.py"):
                pending |= imported_modules(path)
        reached = set()
        while pending:
            name = pending.pop()
            reached.add(name)
            pending |= imported_modules(modules[name]) - reached
        assert set(modules) - reached == set()

    def test_every_dataclass_field_is_set_by_a_shipped_entry_point(self):
        """Every defaulted field of a ``@dataclass`` in ``src/repro`` (a
        ``field(default_factory=...)`` container aside) is given a
        non-default value somewhere in ``src/repro`` or an entry-point script.

        A field counts as written where its name is a call keyword, a
        string dict key or an attribute store (``=`` or an augmented
        ``+=``), or where a call of its class passes a positional argument
        in its place, unless the value is the field's own default
        expression (compared with ``ast.unparse``) or a read of the
        same-named attribute (``x=self.config.x`` forwards, it does not
        set).  Matching is by name only, so the check can miss a dead field
        but never flags one in use.
        """
        import ast

        package_dir, trees = _shipped_trees()
        defaults = {}
        fields = {}  # dataclass name -> its field names in declaration order
        for path, tree in trees.items():
            if package_dir not in path.parents:
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                decorators = [ast.unparse(d) for d in node.decorator_list]
                if not any(d.startswith("dataclass") for d in decorators):
                    continue
                for stmt in node.body:
                    if not isinstance(stmt, ast.AnnAssign):
                        continue
                    fields.setdefault(node.name, []).append(stmt.target.id)
                    if stmt.value is not None and "default_factory" not in ast.unparse(
                        stmt.value
                    ):
                        defaults[f"{node.name}.{stmt.target.id}"] = ast.unparse(stmt.value)

        written = {}
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.keyword) and node.arg:
                    pairs = [(node.arg, node.value)]
                elif isinstance(node, ast.Dict):
                    pairs = [
                        (key.value, value)
                        for key, value in zip(node.keys, node.values)
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    ]
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    pairs = [
                        (target.attr, node.value)
                        for target in targets
                        if isinstance(target, ast.Attribute)
                    ]
                elif isinstance(node, ast.Call):
                    cls = ast.unparse(node.func).split(".")[-1]
                    names = [f"{cls}.{name}" for name in fields.get(cls, [])]
                    if any(isinstance(arg, ast.Starred) for arg in node.args):
                        pairs = [(name, node) for name in names]  # sets every field
                    else:
                        pairs = list(zip(names, node.args))
                else:
                    continue
                for name, value in pairs:
                    if not (isinstance(value, ast.Attribute) and value.attr == name):
                        written.setdefault(name, set()).add(ast.unparse(value))

        never_set = {
            field
            for field, default in defaults.items()
            if not (written.get(field.split(".")[1], set()) | written.get(field, set()))
            - {default}
        }
        assert never_set == set(_NEVER_SET_FIELDS)

    def test_every_cli_option_is_used_outside_the_tests(self):
        """Every option of every verb appears on a ``repro <verb> ...``
        command line (a trailing backslash continues it) in an example, the
        Makefile, a CI workflow, the README or ``docs/``.  An option only
        tests pass is one nobody is shown: delete it, or show it in use.
        """
        import argparse
        import re
        from pathlib import Path

        from repro.cli import _build_parser

        repo = Path(repro.__file__).parent.parent.parent
        (verbs,) = [
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        options = {
            f"{verb} {option}"
            for verb, parser in verbs.choices.items()
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        }
        used = set()
        for pattern in _OPTION_USE_GLOBS:
            for path in repo.glob(pattern):
                text = path.read_text().replace("\\\n", " ")
                for verb, rest in re.findall(r"\brepro (\w+)(.*)", text):
                    used.update(f"{verb} {option}" for option in re.findall(r"--[\w-]+", rest))
        assert options - used == set(_UNUSED_OPTIONS)

    def test_every_defaulted_parameter_is_set_by_a_shipped_entry_point(self):
        """Every defaulted parameter of a function or method in ``src/repro``
        is passed a non-default value somewhere in a shipped file.

        Calls match by name: a bare or attribute name, the class name (or
        a subclass's) for ``__init__``, a ``super().__init__`` call for
        the enclosing class's bases.  A positional argument at or past the
        parameter's index sets it, and so does a call splatting ``*args``
        or ``**kwargs``.  A keyword sets it unless its value is the
        default expression (compared with ``ast.unparse``); a bare
        ``name=name`` forward of the caller's own parameter sets it only
        if that parameter is required or is itself set (solved to a fixed
        point).  A string dict key counts as a keyword to every callee.
        Matching is by name only, so the check can miss a dead parameter
        but never flags one in use.
        """
        import ast

        package_dir, trees = _shipped_trees()
        subclasses = {}
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    for base in node.bases:
                        name = ast.unparse(base).split(".")[-1]
                        subclasses.setdefault(name, set()).add(node.name)

        def with_subclasses(name):
            found, pending = set(), {name}
            while pending:
                found.add(cls := pending.pop())
                pending |= subclasses.get(cls, set()) - found
            return found

        defaults = {}  # key -> default source
        callees = {}  # call name -> [(key, parameter, positional index)]
        calls = []  # (call names, call node, {caller parameter: key or None})
        dict_keys = []  # (key string, value node)

        def visit(node, module, cls, prefix, caller):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, module, child, f"{prefix}{child.name}.", caller)
                    continue
                if isinstance(child, ast.Lambda):
                    params = child.args.posonlyargs + child.args.args
                    visit(child, module, cls, prefix, dict.fromkeys(a.arg for a in params))
                    continue
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if isinstance(child, ast.Call):
                        name = ast.unparse(child.func).split(".")[-1]
                        if name == "__init__" and cls is not None:
                            names = [ast.unparse(b).split(".")[-1] for b in cls.bases]
                        else:
                            names = [name]
                        calls.append((names, child, caller))
                    elif isinstance(child, ast.Dict):
                        dict_keys.extend(
                            (key.value, value)
                            for key, value in zip(child.keys, child.values)
                            if isinstance(key, ast.Constant) and isinstance(key.value, str)
                        )
                    visit(child, module, cls, prefix, caller)
                    continue
                args = child.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and positional and positional[0].arg in ("self", "cls")
                names = {child.name}
                if child.name == "__init__" and cls is not None:
                    names = with_subclasses(cls.name)
                own = {}
                pairs = [
                    (arg, default, index - bound)
                    for index, (arg, default) in enumerate(
                        zip(positional, [None] * (len(positional) - len(args.defaults)) + args.defaults)
                    )
                ] + [(arg, default, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)]
                for arg, default, index in pairs:
                    own[arg.arg] = None
                    if default is None or module is None:
                        continue
                    key = f"{module}.{prefix}{child.name}({arg.arg})"
                    own[arg.arg] = key
                    defaults[key] = ast.unparse(default)
                    for name in names:
                        callees.setdefault(name, []).append((key, arg.arg, index))
                visit(child, module, None, f"{prefix}{child.name}.", own)

        for path, tree in trees.items():
            module = None
            if package_dir in path.parents:
                module = ".".join(path.relative_to(package_dir).with_suffix("").parts)
            visit(tree, module, None, "", {})

        set_, forwards = set(), []
        for names, call, caller in calls:
            splat = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            )
            keywords = {k.arg: k.value for k in call.keywords if k.arg is not None}
            for name in names:
                for key, param, index in callees.get(name, []):
                    value = keywords.get(param)
                    if splat or (index is not None and len(call.args) > index):
                        set_.add(key)
                    elif value is None or ast.unparse(value) == defaults[key]:
                        continue
                    elif isinstance(value, ast.Name) and value.id == param and param in caller:
                        forwards.append((key, caller[param]))
                    else:
                        set_.add(key)
        for param, value in dict_keys:
            for keys in callees.values():
                set_.update(
                    key
                    for key, name, _ in keys
                    if name == param and ast.unparse(value) != defaults[key]
                )
        while newly := {k for k, outer in forwards if outer is None or outer in set_} - set_:
            set_ |= newly
        assert set(defaults) - set_ == set(_NEVER_SET_PARAMETERS)

    def test_package_inits_reexport_nothing(self):
        """A name has one import path: the module that defines it.

        A package ``__init__`` re-exports a name when it imports it and
        either lists it in ``__all__`` or never uses it itself.
        """
        import ast
        from pathlib import Path

        package_dir = Path(repro.__file__).parent
        found = {}
        for path in sorted(package_dir.rglob("__init__.py")):
            tree = ast.parse(path.read_text())
            imported, listed = set(), set()
            for node in tree.body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    imported.update(alias.asname or alias.name for alias in node.names)
                elif isinstance(node, ast.Assign) and _assigns_all(node):
                    listed.update(ast.literal_eval(node.value))
            used = {
                node.id
                for stmt in tree.body
                if not (isinstance(stmt, ast.Assign) and _assigns_all(stmt))
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
            }
            names = sorted(name for name in imported if name in listed or name not in used)
            if names:
                package = ".".join(path.parent.relative_to(package_dir.parent).parts)
                found[package] = names
        assert found == _REEXPORTED_NAMES

    def test_every_function_and_method_is_named_by_a_shipped_file(self):
        """Every function and method in ``src/repro`` is named by a shipped
        file: its identifier (a name, an attribute, an import, a keyword or
        an identifier-shaped string) appears outside its own ``def``, every
        package ``__init__`` and every ``__all__``.

        Dunder methods and the ``visit_*`` methods of ``ast.NodeVisitor``
        subclasses are exempt: Python and the visitor call them by name.
        Matching is by name only, so the check can miss a dead function but
        never flags one in use.
        """
        import ast
        from collections import Counter

        package_dir, trees = _shipped_trees()
        named = Counter()
        defs = []  # (key, def node, counted): counted is False in an __init__

        def visit(node, module, prefix, visitor, counted):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    bases = [ast.unparse(base) for base in child.bases]
                    is_visitor = any(base.endswith("NodeVisitor") for base in bases)
                    visit(child, module, f"{prefix}{child.name}.", is_visitor, counted)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = child.name
                    dunder = name.startswith("__") and name.endswith("__")
                    if not dunder and not (visitor and name.startswith("visit_")):
                        defs.append((f"{module}.{prefix}{name}", child, counted))
                    visit(child, module, f"{prefix}{name}.", False, counted)
                else:
                    visit(child, module, prefix, visitor, counted)

        for path, tree in trees.items():
            counted = path.name != "__init__.py"
            body = [
                stmt
                for stmt in tree.body
                if not (isinstance(stmt, ast.Assign) and _assigns_all(stmt))
            ]
            if counted:
                named.update(name for stmt in body for name in _identifiers(stmt))
            if package_dir in path.parents:
                module = ".".join(path.relative_to(package_dir).with_suffix("").parts)
                visit(ast.Module(body=body, type_ignores=[]), module, "", False, counted)

        unnamed = set()
        for key, node, counted in defs:
            own = sum(name == node.name for name in _identifiers(node)) if counted else 0
            if named[node.name] - own <= 0:
                unnamed.add(key)
        assert unnamed == set(_UNNAMED_FUNCTIONS)

    def test_lower_layers_load_no_upper_layer(self):
        """A layer loads only the layers below it (DESIGN.md §3: sim → net →
        tcp → linux → cdn → core), in a fresh interpreter:
        ``import repro.tcp.socket`` loads nothing from ``cdn``, ``core``,
        the policy zoo, the fault injector, the harnesses or the CLI, and
        ``import repro.sim.kernel`` nothing above ``net`` and ``obs``.
        """
        probe = (
            "import importlib, sys\n"
            "importlib.import_module(sys.argv[1])\n"
            "print(' '.join(sorted(name for name in sys.modules\n"
            "    if name == 'repro' or name.startswith('repro.'))))\n"
        )

        def layers(loaded, upper):
            return {name for name in loaded if name.split(".")[:2][-1] in upper}

        loaded = _fresh_interpreter(probe, "repro.tcp.socket").split()
        upper = ("cdn", "core", "policy", "faults", "experiments", "cli")
        assert layers(loaded, upper) == set()
        loaded = _fresh_interpreter(probe, "repro.sim.kernel").split()
        assert layers(loaded, upper + ("tcp", "linux")) == set()
        assert len(loaded) <= 25, loaded


if __name__ == "__main__":
    methods, classes = _generated_dataclass_methods()
    print(f"{methods} generated dataclass methods on {classes} classes "
          f"(ceiling {_GENERATED_METHOD_CEILING})")
