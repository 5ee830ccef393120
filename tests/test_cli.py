"""Tests for the command-line interface."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter

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
    "RiptideConfig.alpha": "a Table I parameter of the paper's agent: the EWMA's "
    "weight on history",
    "RiptideConfig.c_min": "a Table I parameter of the paper's agent",
    "TcpConfig.delayed_ack": "the packet-path golden cells and the slow-start "
    "oracle set it, and the connection close matrix needs it",
    "TcpConfig.mss": "the segment size every window and byte count in tcp/ and the "
    "fluid engine derives from, threaded through make_cc and FluidPopulation; a "
    "constant would put a global lookup in the per-segment send loop",
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
    "sim.kernel.Simulator.run(max_events)": "the single-step seam "
    "tests/sim/test_differential.py drives its oracle through",
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


#: How the CLI calls a registered runner (``exp.run(**kwargs)``): the
#: reachability checks read it as one call per ``Experiment(...)`` entry of
#: the registry, passing that entry's ``fast`` keys (and ``workers`` when
#: the entry supports workers).
_REGISTRY_RUN = "exp.run"

#: The ``bench/`` tables that name methods as strings, to patch them.
_PATCH_TABLES = ("PATCH_TARGETS", "ROW_TARGETS")


class _Call:
    """One call in a shipped file, as the reachability checks see it."""

    def __init__(self, node, targets, args, path, cls, caller):
        self.node = node
        #: The file it is in, and the class of the method it is in.
        self.path = path
        self.cls = cls
        #: What it reaches: ``("func", module, name)``, ``("init", class)``,
        #: ``("method", name)``, or ``("name", name)`` -- anything so
        #: named -- when the callee is not resolved.
        self.targets = targets
        self.args = args
        #: Keyword name -> value node, splats' known keys included.
        self.keywords = {}
        #: Whether a ``*args`` splat passes positional arguments.
        self.star = any(isinstance(arg, ast.Starred) for arg in args)
        #: Functions whose own ``**kwargs`` a splat passes on.
        self.forwards = []
        #: Whether a ``**`` splat passes keys nobody can list.
        self.unknown = False
        #: The enclosing function or lambda, None at module level.
        self.caller = caller


class _Def:
    """One ``def`` in a shipped file."""

    def __init__(self, node, module, package, qualname, cls, parent):
        self.node = node
        self.module = module
        #: Whether it is defined in ``src/repro`` (not an entry script).
        self.package = package
        self.qualname = qualname
        #: The class whose body defines it, for a method.
        self.cls = cls
        #: The function it is defined in, None for a method or a
        #: module-level function.
        self.parent = parent


class _Resolver:
    """The shipped files (``_shipped_trees``), with every call resolved to
    the definitions it can reach.

    ``mod.f(...)`` with ``mod`` bound by an import resolves to that
    module's ``f``; ``Cls(...)`` and ``super().__init__`` to the class;
    ``obj.m(...)`` on any other receiver to the methods named ``m``; a bare
    ``f(...)`` to the module-level ``f`` in scope (a closure, when ``f``
    is bound to what its maker returns), and a bare call of the caller's
    own parameter also to what the caller's callers pass for it.  A call
    it cannot resolve reaches everything of its name.  A ``**name`` splat
    passes the keys of the dict literal or ``dict(...)`` ``name`` was bound
    to, or, when it passes on the caller's own ``**kwargs``, the keywords
    the caller's callers pass; any other splat passes keys nobody can
    list.  ``_REGISTRY_RUN`` passes each registry entry's ``fast`` keys.
    """

    def __init__(self):
        self.package_dir, self.trees = _shipped_trees()
        self.module_of = {}  # path -> module id (dotted for the package)
        for path in self.trees:
            if self.package_dir in path.parents:
                parts = path.relative_to(self.package_dir.parent).with_suffix("").parts
                self.module_of[path] = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            else:
                self.module_of[path] = str(path)
        self.path_of = {module: path for path, module in self.module_of.items()}
        self.bindings = {path: self._bindings(tree) for path, tree in self.trees.items()}
        self.bases, self.classes = {}, {}
        for tree in self.trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.bases[node.name] = [ast.unparse(b).split(".")[-1] for b in node.bases]
                    self.classes[node.name] = node
        self.def_of, self.calls = {}, []  # def_of: def node -> _Def
        for path, tree in self.trees.items():
            self._visit(tree, path, None, None, None, "")
        for call in self.calls:
            self._resolve_parameter_call(call)

    def with_subclasses(self, name):
        """``name`` and every class that derives from it."""
        return {cls for cls in self.bases if name in self.ancestors(cls)}

    def ancestors(self, name):
        """``name`` and every class it derives from, nearest first."""
        found = [name]
        for base in self.bases.get(name, []):
            found += [cls for cls in self.ancestors(base) if cls not in found]
        return found

    def targets_of(self, d):
        """The call targets that reach ``d``."""
        name = d.node.name
        if d.cls is not None and name == "__init__":
            classes = self.with_subclasses(d.cls.name)
            return {("init", cls) for cls in classes} | {("name", cls) for cls in classes}
        if d.cls is not None:
            return {("method", name), ("name", name)}
        if d.parent is not None:
            # A closure its module-level maker returns is reached by
            # calling what the maker's result is bound to.
            returned = any(
                isinstance(node, ast.Return) and ast.unparse(node.value or ast.Constant(None)) == name
                for node in d.parent.body
            )
            return {("name", name)} | ({("made", d.module, d.parent.name)} if returned else set())
        return {("func", d.module, name), ("name", name)}

    def class_of(self, expr, call):
        """The class ``expr``'s value has inside ``call``'s function, read
        from annotations, else None: a class call, an annotated parameter,
        ``self``, or an attribute a class annotates.
        """
        if isinstance(expr, ast.Call):
            inits = {cls for kind, cls, *_ in self.resolve(expr.func, call.path, call.cls) if kind == "init"}
            return inits.pop() if len(inits) == 1 else None
        if isinstance(expr, ast.Name):
            if expr.id == "self" and call.cls is not None:
                return call.cls.name
            caller = call.caller if isinstance(call.caller, ast.FunctionDef) else None
            params = [] if caller is None else caller.args.args + caller.args.kwonlyargs
            return next((_class_named(p.annotation) for p in params if p.arg == expr.id), None)
        if isinstance(expr, ast.Attribute):
            owner = self.class_of(expr.value, call)
            for cls in self.ancestors(owner) if owner in self.classes else []:
                for stmt in self.classes[cls].body:
                    if isinstance(stmt, ast.AnnAssign) and ast.unparse(stmt.target) == expr.attr:
                        return _class_named(stmt.annotation)
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                        for param in stmt.args.args:
                            if param.arg == expr.attr:
                                return _class_named(param.annotation)
        return None

    def keywords(self, call, active=frozenset()):
        """The keywords ``call`` passes (name -> value node), the callers'
        keywords of every ``**kwargs`` it passes on included; None when a
        splat passes keys nobody can list.
        """
        if call.unknown:
            return None
        keywords = {}
        for d in call.forwards:
            passed = self.passed_to(d, active)
            if passed is None:
                return None
            keywords.update(passed)
        return {**keywords, **call.keywords}

    def passed_to(self, d, active=frozenset()):
        """Every keyword a call reaching ``d`` passes, None if unknown."""
        if d.node in active:
            return {}
        targets = self.targets_of(d)
        passed = {}
        for call in self.calls:
            if call.targets & targets:
                keywords = self.keywords(call, active | {d.node})
                if keywords is None:
                    return None
                passed.update(keywords)
        return passed

    def _bindings(self, tree):
        """Name -> ``("module", m)``, ``("symbol", m, name)``, ``("def", node)``,
        ``("class", node)`` or ``("made", maker)``, for a file's imports
        (anywhere in it), its module-level definitions and its module-level
        ``name = maker(...)`` assignments.
        """
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bound[alias.asname] = ("module", alias.name)
                    else:
                        root = alias.name.split(".")[0]
                        bound[root] = ("module", root)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    full = f"{node.module}.{alias.name}"
                    bound[alias.asname or alias.name] = (
                        ("module", full) if full in self.path_of else ("symbol", node.module, alias.name)
                    )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound[node.name] = ("def", node)
            elif isinstance(node, ast.ClassDef):
                bound[node.name] = ("class", node)
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound[target.id] = ("made", node.value.func.id)
        return bound

    def _lookup(self, module, name, binding=None):
        """Targets of ``name`` in ``module`` (or of ``binding``): an empty
        set outside ``repro``, None when it is not found.
        """
        if binding is None:
            if module not in self.path_of:
                return None if module.startswith("repro") else set()
            binding = self.bindings[self.path_of[module]].get(name)
        if binding is None:
            return None
        if binding[0] == "def":
            return {("func", module, binding[1].name)}
        if binding[0] == "class":
            return {("init", binding[1].name)}
        if binding[0] == "symbol":
            return self._lookup(binding[1], binding[2])
        if binding[0] == "made":
            return {("made", module, binding[1])}
        return None

    def _module(self, node, path):
        """The module an expression names through an import, else None."""
        binding = self.bindings[path].get(node.id) if isinstance(node, ast.Name) else None
        if binding is not None and binding[0] == "module":
            return binding[1]
        dotted = ast.unparse(node)
        root = self.bindings[path].get(dotted.split(".")[0])
        if dotted in self.path_of and root is not None and root[0] == "module":
            return dotted
        return None

    def resolve(self, func, path, cls):
        """The targets a call of ``func`` reaches."""
        name = ast.unparse(func).split(".")[-1]
        if isinstance(func, ast.Name):
            binding = self.bindings[path].get(func.id)
            found = None if binding is None else self._lookup(self.module_of[path], name, binding)
        elif isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Call) and ast.unparse(receiver.func) == "super":
                if func.attr == "__init__" and cls is not None:
                    return {("init", base) for base in self.bases[cls.name]}
                return {("method", func.attr)}
            module = self._module(receiver, path)
            if module is None:
                return {("method", func.attr)}
            found = self._lookup(module, func.attr)
        else:
            found = None
        return {("name", name)} if found is None else found

    def _splat(self, value, path, caller, call):
        """Add what a ``**value`` splat passes to ``call``."""
        if isinstance(value, ast.Dict):
            for key, item in zip(value.keys, value.values):
                if key is None:
                    self._splat(item, path, caller, call)
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    call.keywords.setdefault(key.value, item)
                else:
                    call.unknown = True
        elif isinstance(value, ast.Call) and ast.unparse(value.func) == "dict" and not value.args:
            for keyword in value.keywords:
                if keyword.arg is None:
                    self._splat(keyword.value, path, caller, call)
                else:
                    call.keywords.setdefault(keyword.arg, keyword.value)
        elif isinstance(value, ast.IfExp):
            self._splat(value.body, path, caller, call)
            self._splat(value.orelse, path, caller, call)
        elif isinstance(value, ast.DictComp) and ast.unparse(value.value).startswith("getattr(self, "):
            pass  # a copy of the caller's own attributes forwards, it does not set
        elif isinstance(value, ast.Name):
            own = getattr(getattr(caller, "args", None), "kwarg", None)
            if own is not None and own.arg == value.id and caller in self.def_of:
                call.forwards.append(self.def_of[caller])
                return
            module = [s for s in self.trees[path].body if isinstance(s, (ast.Assign, ast.AnnAssign))]
            scope = list(ast.walk(caller)) if caller is not None else []
            values = self._bound_values(scope, value.id) or self._bound_values(module, value.id)
            if not values:
                call.unknown = True
            for bound in values:
                self._splat(bound, path, caller, call)
        else:
            call.unknown = True

    @staticmethod
    def _bound_values(nodes, name):
        """What ``name`` is assigned among ``nodes``: whole values, and
        ``{key: value}`` for each ``name[key] = value``."""
        values = []
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name) and target.id == name:
                        values.append(node.value)
                    elif (
                        isinstance(target, ast.Subscript)
                        and ast.unparse(target.value) == name
                    ):
                        values.append(ast.Dict(keys=[target.slice], values=[node.value]))
        return values

    def _resolve_parameter_call(self, call):
        """A bare call of the caller's own parameter also reaches what
        the caller's callers pass for that parameter."""
        func, caller = call.node.func, call.caller
        if not isinstance(func, ast.Name) or not isinstance(caller, ast.FunctionDef):
            return
        params = [arg.arg for arg in caller.args.posonlyargs + caller.args.args]
        if func.id not in params + [arg.arg for arg in caller.args.kwonlyargs]:
            return
        d = self.def_of[caller]
        if d.cls is not None and func.id == params[0] == "cls":
            call.targets |= {("init", d.cls.name)}  # `cls(...)` in a classmethod
            return
        position = params.index(func.id) if func.id in params else None
        if position is not None and d.cls is not None and params[0] in ("self", "cls"):
            position -= 1
        targets = self.targets_of(d)
        for outer in self.calls:
            if not outer.targets & targets:
                continue
            given = dict(outer.keywords)
            if position is not None and position < len(outer.args):
                given[func.id] = outer.args[position]
            if isinstance(given.get(func.id), (ast.Name, ast.Attribute)):
                call.targets |= self.resolve(given[func.id], outer.path, outer.cls)

    def _record(self, node, path, cls, caller):
        """A ``_Call`` for ``node``; the registry's entries for ``exp.run``."""
        if ast.unparse(node.func) == _REGISTRY_RUN:
            return
        call = _Call(node, self.resolve(node.func, path, cls), node.args, path, cls, caller)
        for keyword in node.keywords:
            if keyword.arg is None:
                self._splat(keyword.value, path, caller, call)
            else:
                call.keywords[keyword.arg] = keyword.value
        self.calls.append(call)
        if call.targets == {("init", "Experiment")}:
            given = {keyword.arg: keyword.value for keyword in node.keywords}
            runner = node.args[2] if len(node.args) > 2 else given["run"]
            entry = _Call(node, self.resolve(runner, path, None), [], path, None, caller)
            if "fast" in given:
                self._splat(given["fast"], path, caller, entry)
            if ast.unparse(given.get("supports_workers", ast.Constant(False))) == "True":
                entry.keywords["workers"] = ast.Name("workers")
            self.calls.append(entry)

    def _visit(self, node, path, cls, owner, caller, prefix):
        """Record the calls and ``def``s under ``node``: ``cls`` is the class
        whose body it is, ``owner`` the class of the enclosing method (for
        ``super()``), ``caller`` the enclosing function or lambda.
        """
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit(child, path, child, child, caller, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                package = self.package_dir in path.parents
                qualname = f"{prefix}{child.name}"
                self.def_of[child] = _Def(
                    child, self.module_of[path], package, qualname, cls, caller
                )
                self._visit(child, path, None, owner, child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.Lambda):
                self._visit(child, path, None, owner, child, prefix)
            else:
                if isinstance(child, ast.Call):
                    self._record(child, path, owner, caller)
                self._visit(child, path, cls, owner, caller, prefix)


def _class_named(annotation):
    """The class an annotation names (``X | None`` names ``X``), else None."""
    if annotation is None:
        return None
    for part in ast.unparse(annotation).strip("'\"").split("|"):
        if part.strip() != "None":
            return part.strip().split(".")[-1]
    return None


def _names(node):
    """``(identifier, kind)`` for every place ``node`` names a function or
    method: ``"name"`` for a bare name, ``"attribute"`` for an attribute,
    an import, a string passed to ``getattr``, ``setattr`` or ``hasattr``,
    a string in one of ``_PATCH_TABLES``, and a name a class body assigns.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, "name"
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, "attribute"
        elif isinstance(sub, ast.alias):
            yield sub.name.split(".")[-1], "attribute"
            if sub.asname:
                yield sub.asname, "attribute"
        elif (
            isinstance(sub, ast.Call)
            and ast.unparse(sub.func) in ("getattr", "setattr", "hasattr")
            and len(sub.args) > 1
            and isinstance(sub.args[1], ast.Constant)
        ):
            yield str(sub.args[1].value), "attribute"
        elif isinstance(sub, ast.AnnAssign) and ast.unparse(sub.target) in _PATCH_TABLES:
            for item in ast.walk(sub.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    yield item.value, "attribute"
        elif isinstance(sub, ast.ClassDef):
            # `visit_ListComp = _visit_comprehension` names a method.
            for stmt in sub.body:
                if isinstance(stmt, ast.Assign):
                    for item in ast.walk(stmt.value):
                        if isinstance(item, ast.Name):
                            yield item.id, "attribute"


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

    def test_every_dataclass_field_is_set_by_a_shipped_entry_point(self):
        """Every defaulted field of a ``@dataclass`` in ``src/repro`` (a
        ``field(default_factory=...)`` container aside) is given a
        non-default value somewhere in ``src/repro`` or an entry-point script.

        A field is written by a call of its class or a subclass (a keyword,
        a positional argument in its place, or a ``**`` splat of a dict
        holding its key, through ``StudyConfig.arm(**specifics)`` too), by
        ``replace(x, field=...)``, by a subclass redeclaring it with another
        default, or, unless its class is frozen, by an attribute store;
        calls resolve as ``_Resolver`` says.  A value that is the field's
        own default expression (compared with ``ast.unparse``) or a read
        of the same-named attribute (``x=self.config.x`` forwards) does not
        write it.  A splat nobody can list writes every field of its class,
        so the check never flags one in use.
        """
        index = _Resolver()
        defaults = {}
        fields = {}  # dataclass name -> its field names in declaration order
        frozen = set()
        for path, tree in index.trees.items():
            if index.package_dir not in path.parents:
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                decorators = [ast.unparse(d) for d in node.decorator_list]
                if not any(d.startswith("dataclass") for d in decorators):
                    continue
                if any("frozen=True" in d for d in decorators):
                    frozen.add(node.name)
                for stmt in node.body:
                    annotation = ast.unparse(getattr(stmt, "annotation", ast.Constant(None)))
                    if not isinstance(stmt, ast.AnnAssign) or annotation.startswith("ClassVar"):
                        continue
                    fields.setdefault(node.name, []).append(stmt.target.id)
                    if stmt.value is not None and "default_factory" not in ast.unparse(
                        stmt.value
                    ):
                        defaults[f"{node.name}.{stmt.target.id}"] = ast.unparse(stmt.value)

        def declaring(cls):
            """Field name -> the keys declaring it, in ``cls``'s field order."""
            found = {}
            for owner in reversed(index.ancestors(cls)) if cls in fields or cls in index.bases else []:
                for name in fields.get(owner, []):
                    found.setdefault(name, []).append(f"{owner}.{name}")
            return found

        written, forwards = set(), []  # forwards: (key, source key or None)

        def write(key, value, call=None):
            name = key.split(".")[1]
            if value is None:
                written.add(key)
            elif isinstance(value, ast.Attribute) and value.attr == name:
                source = declaring(index.class_of(value.value, call)).get(name, [None])[-1]
                forwards.append((key, source))
            elif ast.unparse(value) != defaults.get(key):
                written.add(key)

        for cls in fields:
            for keys in declaring(cls).values():
                if len(keys) > 1:
                    written.update(keys)  # a redeclaration sets another default
        for call in index.calls:
            keywords = index.keywords(call)
            if ast.unparse(call.node.func).split(".")[-1] == "replace" and call.args:
                known = declaring(index.class_of(call.args[0], call))
                for key in defaults:
                    name = key.split(".")[1]
                    if known and key not in known.get(name, []):
                        continue
                    if keywords is None or name in keywords:
                        write(key, None if keywords is None else keywords[name], call)
            for kind, cls, *_ in call.targets:
                if kind not in ("init", "name") or cls not in index.bases:
                    continue
                for position, (name, keys) in enumerate(declaring(cls).items()):
                    for key in keys:
                        if keywords is None or call.star:
                            write(key, None)
                        elif position < len(call.args):
                            write(key, call.args[position], call)
                        elif name in keywords:
                            write(key, keywords[name], call)
        for tree in index.trees.values():
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        for key in defaults:
                            cls, name = key.split(".")
                            if cls not in frozen and getattr(target, "attr", None) == name:
                                write(key, node.value)
        def passes(key, source):
            if source is not None:
                return source in written or source not in defaults
            return any(k.split(".")[1] == key.split(".")[1] for k in written - {key})

        while newly := {key for key, source in forwards if passes(key, source)} - written:
            written |= newly
        assert set(defaults) - written == set(_NEVER_SET_FIELDS)

    def test_every_defaulted_parameter_is_set_by_a_shipped_entry_point(self):
        """Every defaulted parameter of a function or method in ``src/repro``
        is passed a non-default value somewhere in a shipped file.

        A call counts only for the callees ``_Resolver`` resolves it to.  A
        positional argument at or past the parameter's index sets it, and
        so does a ``*args`` splat.  A keyword, or a key a ``**`` splat
        passes, sets it unless its value is the default expression
        (compared with ``ast.unparse``); a bare ``name=name`` forward of
        the caller's own parameter sets it only if that parameter is
        required or is itself set (solved to a fixed point).  A splat
        nobody can list sets every parameter of its callees, and a call
        nobody can resolve reaches every callee of its name, so the check
        never flags a parameter in use.
        """
        index = _Resolver()
        defaults = {}  # key -> default source
        callees = {}  # call target -> [(key, parameter, positional index)]
        own = {}  # def or lambda node -> {parameter: key, or None if required}
        for d in index.def_of.values():
            args = d.node.args
            positional = args.posonlyargs + args.args
            bound = d.cls is not None and positional and positional[0].arg in ("self", "cls")
            pairs = [
                (arg, default, i - bound)
                for i, (arg, default) in enumerate(
                    zip(positional, [None] * (len(positional) - len(args.defaults)) + args.defaults)
                )
            ] + [(arg, default, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)]
            params = own[d.node] = {}
            for arg, default, position in pairs:
                params[arg.arg] = None
                if default is None or not d.package:
                    continue
                key = params[arg.arg] = f"{d.module.removeprefix('repro.')}.{d.qualname}({arg.arg})"
                defaults[key] = ast.unparse(default)
                for target in index.targets_of(d):
                    callees.setdefault(target, []).append((key, arg.arg, position))

        set_, forwards = set(), []
        for call in index.calls:
            keywords = index.keywords(call)
            if isinstance(call.caller, ast.Lambda):
                caller = dict.fromkeys(a.arg for a in call.caller.args.args)
            else:
                caller = own.get(call.caller, {})
            for target in call.targets:
                for key, param, position in callees.get(target, []):
                    if keywords is None or call.star or (
                        position is not None and len(call.args) > position
                    ):
                        set_.add(key)
                        continue
                    value = keywords.get(param)
                    if value is None or ast.unparse(value) == defaults[key]:
                        continue
                    if isinstance(value, ast.Name) and value.id == param and param in caller:
                        forwards.append((key, caller[param]))
                    else:
                        set_.add(key)
        while newly := {k for k, outer in forwards if outer is None or outer in set_} - set_:
            set_ |= newly
        assert set(defaults) - set_ == set(_NEVER_SET_PARAMETERS)

    def test_every_function_and_method_is_named_by_a_shipped_file(self):
        """Every function and method in ``src/repro`` is named by a shipped
        file outside its own ``def``, every package ``__init__`` and every
        ``__all__``.

        A method is named where its identifier appears as an attribute, an
        import, a string passed to ``getattr``, ``setattr`` or ``hasattr``,
        or a string in one of ``bench/``'s ``_PATCH_TABLES``; a function
        also where its bare name appears.  A local variable, a keyword or
        a column header of the same name names neither.  Dunder methods
        and the ``visit_*`` methods of ``ast.NodeVisitor`` subclasses are
        exempt: Python and the visitor call them by name.
        """
        index = _Resolver()
        named = Counter()  # (identifier, "attribute" or "name") -> occurrences
        for path, tree in index.trees.items():
            if path.name != "__init__.py":
                body = [s for s in tree.body if not (isinstance(s, ast.Assign) and _assigns_all(s))]
                named.update(_names(ast.Module(body=body, type_ignores=[])))
        unnamed = set()
        for d in index.def_of.values():
            name = d.node.name
            dunder = name.startswith("__") and name.endswith("__")
            visitor = d.cls is not None and any(
                ast.unparse(base).endswith("NodeVisitor") for base in d.cls.bases
            )
            if not d.package or dunder or (visitor and name.startswith("visit_")):
                continue
            kinds = ["attribute"] if d.cls is not None else ["attribute", "name"]
            uses = named.copy()
            if index.path_of[d.module].name != "__init__.py":
                uses.subtract(_names(d.node))
            if sum(uses[(name, kind)] for kind in kinds) <= 0:
                unnamed.add(f"{d.module.removeprefix('repro.')}.{d.qualname}")
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
