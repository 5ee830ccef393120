"""Command-line interface for the reproduction.

::

    python -m repro list                 # all registered experiments
    python -m repro run fig03            # regenerate one figure/table
    python -m repro run fig10 --fast     # reduced-scale simulation run
    python -m repro run fig10 --workers 4  # fan the sweep across processes
    python -m repro run --faults chaos_partition  # paired chaos study
    python -m repro run --list           # runnable experiments + worker/fault surface
    python -m repro tournament --workers 4  # policy zoo x scenarios leaderboard
    python -m repro faults               # list chaos scenarios + timelines
    python -m repro describe fig12_14    # what an experiment reproduces
    python -m repro metrics fig10        # run + print the metric table
    python -m repro metrics fig10 --prom # Prometheus text exposition instead
    python -m repro flows fig12_14       # run + print per-connection flow records
    python -m repro flows fig12_14 --since 10 --until 40  # sim-time window
    python -m repro report chaos_lossy_agent  # tail-latency attribution report
    python -m repro alerts chaos_lossy_agent --check  # SLO burn-rate alerts
    python -m repro watch chaos_lossy_agent   # replay the run as live frames
    python -m repro lint src/            # determinism/sim-invariant analyzer

``run`` prints the same rows/series the corresponding paper figure or
table reports.  ``metrics`` runs the experiment under an instrumentation
capture (see :mod:`repro.obs`) and prints the aggregated metric table
and trace-event totals instead — the operator's view of the same run.
``flows`` and ``report`` use the same capture but surface the flow
records, lifecycle spans and the tail-latency attribution built from
them (:mod:`repro.obs.report`).  Experiments may be named by id
(``fig10``) or by harness module name (``fig10_cmax_sweep``).

``alerts`` evaluates the burn-rate SLO engine's episode log into a
report artifact (``--check`` additionally enforces the scenario's
expected-alert contracts), and ``watch`` replays the captured stores as
operator dashboard frames.  ``metrics``, ``flows``, ``report``,
``alerts`` and ``watch`` accept ``--workers``; the worker captures
merge deterministically, so their output is byte-identical to a serial
run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections.abc import Callable
from typing import TypeVar

from repro.experiments.registry import EXPERIMENTS, Experiment, get_experiment, list_experiments
from repro.obs.instrument import Instrumentation, capture


_T = TypeVar("_T")


def _checked(
    convert: Callable[[str], _T], accept: Callable[[_T], bool], what: str
) -> Callable[[str], _T]:
    """An argparse ``type=``: ``convert`` the text and insist on ``accept``.

    A value it refuses makes argparse exit 2 before the verb does any work.
    """

    def parse(text: str) -> _T:
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")

    return parse


_POSITIVE_INT = _checked(int, lambda value: value > 0, "a positive integer")
_POSITIVE = _checked(
    float, lambda value: math.isfinite(value) and value > 0, "a finite number > 0"
)
_NON_NEGATIVE = _checked(
    float, lambda value: math.isfinite(value) and value >= 0, "a finite number >= 0"
)
_FINITE = _checked(float, math.isfinite, "a finite number")
#: A file an "also write X to PATH" option fills after the run: a typo in
#: its directory fails before the run rather than after it.
_ARTIFACT_PATH = _checked(
    str,
    lambda path: os.path.isdir(os.path.dirname(path) or ".") and not os.path.isdir(path),
    "a file in an existing directory",
)


def _add_scale_flags(
    parser: argparse.ArgumentParser,
    identical: str = "output is byte-identical to serial",
) -> None:
    """``--fast`` and ``--workers``, as every verb that runs an experiment takes them."""
    parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced-scale run (smaller topology / fewer samples)",
    )
    parser.add_argument(
        "--workers",
        type=_POSITIVE_INT,
        default=1,
        metavar="N",
        help=f"fan independent simulation arms across N worker processes ({identical})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce figures and tables from the Riptide paper "
        "(ICDCS 2016).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list all registered experiments")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.set_defaults(handler=_cmd_run)
    run_parser.add_argument(
        "experiment_id",
        nargs="?",
        default=None,
        help="e.g. fig03, table2, fig12_14 (omit when using --faults)",
    )
    run_parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list runnable experiments with their worker support and "
        "fault-scenario pairing, then exit",
    )
    run_parser.add_argument(
        "--faults",
        metavar="SCENARIO",
        default=None,
        help="run the paired chaos study for a fault scenario "
        "(see `repro faults` for the list)",
    )
    _add_scale_flags(
        run_parser, "experiments that support it; results are identical to serial"
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the determinism/sim-invariant static analyzer",
    )
    lint_parser.set_defaults(handler=_cmd_lint)
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format: text (default), json, or github workflow "
        "annotations",
    )
    lint_parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (e.g. DET001,SLOT001)",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rule codes and what they check, then exit",
    )

    tournament_parser = subparsers.add_parser(
        "tournament",
        help="race the window-policy zoo across scenarios; emit a leaderboard",
    )
    tournament_parser.set_defaults(handler=_cmd_tournament)
    tournament_parser.add_argument(
        "--policies",
        nargs="*",
        metavar="POLICY",
        default=None,
        help="policies to race (default: the full zoo)",
    )
    tournament_parser.add_argument(
        "--scenarios",
        nargs="*",
        metavar="SCENARIO",
        default=None,
        help="scenario columns (default: the full matrix)",
    )
    _add_scale_flags(tournament_parser, "the leaderboard is byte-identical to serial")
    tournament_parser.add_argument(
        "--out",
        type=_ARTIFACT_PATH,
        metavar="PATH",
        default=None,
        help="write the leaderboard artifact JSON to PATH",
    )
    tournament_parser.add_argument(
        "--markdown",
        type=_ARTIFACT_PATH,
        metavar="PATH",
        default=None,
        help="write the leaderboard as markdown to PATH",
    )

    faults_parser = subparsers.add_parser(
        "faults",
        help="list the chaos fault scenarios and their timelines",
    )
    faults_parser.set_defaults(handler=_cmd_faults)
    faults_parser.add_argument(
        "--duration",
        type=_POSITIVE,
        default=90.0,
        metavar="SECONDS",
        help="probing duration the printed timelines are scaled to "
        "(default: 90)",
    )

    describe_parser = subparsers.add_parser(
        "describe", help="show what an experiment reproduces"
    )
    describe_parser.set_defaults(handler=_cmd_describe)
    describe_parser.add_argument("experiment_id")

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="run an experiment and print its metric table and trace totals",
    )
    metrics_parser.set_defaults(handler=_cmd_metrics)
    metrics_parser.add_argument(
        "experiment_id", help="e.g. fig10 or fig10_cmax_sweep"
    )
    _add_scale_flags(metrics_parser)
    metrics_parser.add_argument(
        "--json",
        action="store_true",
        help="emit metrics and trace as JSON instead of tables",
    )
    metrics_parser.add_argument(
        "--prom",
        action="store_true",
        help="emit the registry in the Prometheus text exposition format "
        "(histograms as summaries; deterministic, byte-comparable)",
    )
    metrics_parser.add_argument(
        "--csv",
        type=_ARTIFACT_PATH,
        metavar="PATH",
        help="also write the metric table to PATH as CSV",
    )

    flows_parser = subparsers.add_parser(
        "flows",
        help="run an experiment and print its per-connection flow records",
    )
    flows_parser.set_defaults(handler=_cmd_flows)
    flows_parser.add_argument(
        "experiment_id", help="e.g. fig12_14 or chaos_lossy_agent"
    )
    _add_scale_flags(flows_parser)
    flows_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the flow records as JSON instead of a summary table",
    )
    flows_parser.add_argument(
        "--jsonl",
        type=_ARTIFACT_PATH,
        metavar="PATH",
        help="also write the flow records to PATH as JSON Lines",
    )
    flows_parser.add_argument(
        "--since",
        type=_FINITE,
        default=None,
        metavar="T",
        help="only flows alive at or after sim-time T seconds",
    )
    flows_parser.add_argument(
        "--until",
        type=_FINITE,
        default=None,
        metavar="T",
        help="only flows opened at or before sim-time T seconds",
    )

    report_parser = subparsers.add_parser(
        "report",
        help="run an experiment and print its tail-latency attribution report",
    )
    report_parser.set_defaults(handler=_cmd_report)
    report_parser.add_argument(
        "experiment_id", help="e.g. chaos_lossy_agent or fig12_14"
    )
    _add_scale_flags(report_parser)
    report_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    report_parser.add_argument(
        "--out",
        type=_ARTIFACT_PATH,
        metavar="PATH",
        help="also write the report JSON to PATH",
    )
    report_parser.add_argument(
        "--spans",
        type=_ARTIFACT_PATH,
        metavar="PATH",
        help="also write the lifecycle spans to PATH as Chrome trace JSON "
        "(loadable in Perfetto / chrome://tracing)",
    )
    report_parser.add_argument(
        "--timeline-csv",
        type=_ARTIFACT_PATH,
        metavar="PATH",
        help="also write the sampled time series to PATH as CSV",
    )
    report_parser.add_argument(
        "--since",
        type=_FINITE,
        default=None,
        metavar="T",
        help="attribute only probes overlapping sim-time >= T seconds",
    )
    report_parser.add_argument(
        "--until",
        type=_FINITE,
        default=None,
        metavar="T",
        help="attribute only probes overlapping sim-time <= T seconds",
    )

    alerts_parser = subparsers.add_parser(
        "alerts",
        help="run an experiment and print its SLO burn-rate alert report",
    )
    alerts_parser.set_defaults(handler=_cmd_alerts)
    alerts_parser.add_argument(
        "experiment_id", help="e.g. chaos_lossy_agent or fig12_14"
    )
    _add_scale_flags(alerts_parser)
    alerts_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the alert report as JSON instead of markdown",
    )
    alerts_parser.add_argument(
        "--out",
        type=_ARTIFACT_PATH,
        metavar="PATH",
        help="also write the alert report JSON to PATH",
    )
    alerts_parser.add_argument(
        "--markdown",
        type=_ARTIFACT_PATH,
        metavar="PATH",
        help="also write the alert report as markdown to PATH",
    )
    alerts_parser.add_argument(
        "--check",
        action="store_true",
        help="enforce the experiment's expected-alert contracts "
        "(exit 1 when an expected alert never fired/resolved)",
    )

    watch_parser = subparsers.add_parser(
        "watch",
        help="run an experiment and replay it as live operator frames",
    )
    watch_parser.set_defaults(handler=_cmd_watch)
    watch_parser.add_argument(
        "experiment_id", help="e.g. chaos_lossy_agent or fig12_14"
    )
    _add_scale_flags(watch_parser, "the frames are byte-identical to serial")
    watch_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the frames as JSON instead of the watch transcript",
    )
    watch_parser.add_argument(
        "--speed",
        type=_NON_NEGATIVE,
        default=0.0,
        metavar="R",
        help="replay pacing: sleep 5/R wall seconds (one SLO window) between "
        "frames (0, the default, prints everything at once)",
    )

    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    for exp in list_experiments():
        kind = "simulation" if exp.simulation_backed else "model"
        extras = []
        if exp.supports_workers:
            extras.append("workers")
        if exp.fault_scenario is not None:
            extras.append(f"faults:{exp.fault_scenario}")
        tag = f" ({', '.join(extras)})" if extras else ""
        print(f"{exp.experiment_id:<18} [{kind:<10}] {exp.description}{tag}")
    return 0


def _normalize_experiment_id(experiment_id: str) -> str:
    """Resolve an id or a harness module name to a registered id.

    ``fig10`` and ``fig10_cmax_sweep`` both name the Figure 10 sweep: the
    former is the registry id, the latter the module under
    ``repro.experiments`` that implements it.
    """
    if experiment_id in EXPERIMENTS:
        return experiment_id
    for exp in EXPERIMENTS.values():
        module_name = exp.run.__module__.rsplit(".", 1)[-1]
        if experiment_id == module_name:
            return exp.experiment_id
    return experiment_id  # let get_experiment raise its usual error


def _lookup(experiment_id: str) -> Experiment:
    """The experiment an id or harness module name refers to (KeyError if none)."""
    return get_experiment(_normalize_experiment_id(experiment_id))


def _cmd_describe(args: argparse.Namespace) -> int:
    exp = _lookup(args.experiment_id)
    print(f"id:          {exp.experiment_id}")
    print(f"description: {exp.description}")
    print(f"backed by:   {'full simulation' if exp.simulation_backed else 'closed-form model'}")
    doc = sys.modules[exp.run.__module__].__doc__ or ""
    print(f"\n{doc.strip()}")
    return 0


def _run_kwargs(exp: Experiment, fast: bool, workers: int) -> dict[str, object]:
    """Keyword arguments for ``exp.run`` under ``--fast`` / ``--workers``."""
    kwargs = dict(exp.fast) if fast else {}
    if workers > 1:
        if exp.supports_workers:
            kwargs["workers"] = workers
        else:
            print(
                f"note: {exp.experiment_id} has no independent simulation arms; "
                "running serially",
                file=sys.stderr,
            )
    return kwargs


def _cmd_run_list() -> int:
    """``run --list``: runnable experiments with their run-time surface."""
    print(f"{'experiment':<18} {'kind':<10} {'workers':<8} fault scenario")
    for exp in list_experiments():
        kind = "simulation" if exp.simulation_backed else "model"
        workers = "yes" if exp.supports_workers else "no"
        faults = exp.fault_scenario if exp.fault_scenario is not None else "-"
        print(f"{exp.experiment_id:<18} {kind:<10} {workers:<8} {faults}")
    print(
        "\nworkers: accepts --workers N (independent simulation arms; "
        "results identical to serial)"
    )
    print(
        "fault scenario: the chaos schedule the experiment runs under "
        "(see `repro faults`)"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list_experiments:
        return _cmd_run_list()
    experiment_id = args.experiment_id
    banner = None
    if args.faults is not None:
        if experiment_id is not None:
            print(
                "error: give either an experiment id or --faults, not both",
                file=sys.stderr,
            )
            return 2
        from repro.faults.scenarios import get_scenario

        # Every scenario is registered as the experiment of the same name.
        experiment_id = get_scenario(args.faults).name
        banner = (
            f"running chaos scenario {experiment_id} "
            "(paired control/Riptide simulation; this takes a while)..."
        )
    elif experiment_id is None:
        print(
            "error: run needs an experiment id (or --faults SCENARIO)",
            file=sys.stderr,
        )
        return 2
    exp = _lookup(experiment_id)
    kwargs = _run_kwargs(exp, args.fast, args.workers)
    if banner is not None:
        print(banner)
    elif exp.simulation_backed:
        print(f"running {exp.experiment_id} (full simulation; this takes a while)...")
    started = time.perf_counter()
    result = exp.run(**kwargs)
    elapsed = time.perf_counter() - started
    print(result.report())
    print(f"\n[{exp.experiment_id} completed in {elapsed:.1f}s]")
    return 0


def _write_artifact(path: str | None, what: str, render: Callable[[], str]) -> None:
    """An "also write X to PATH" flag: render, write and say so, if PATH was given."""
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render())
    print(f"{what} written to {path}", file=sys.stderr)


def _cmd_tournament(args: argparse.Namespace) -> int:
    """Race the policy zoo; print and optionally write the leaderboard."""
    from dataclasses import replace

    from repro.experiments.tournament import TournamentConfig, run_tournament

    base = get_experiment("tournament").fast["config"] if args.fast else TournamentConfig()
    config = replace(
        base,
        policies=tuple(args.policies) if args.policies else (),
        scenarios=tuple(args.scenarios) if args.scenarios else (),
    )
    try:
        cell_count = len(config.resolved_policies()) * len(
            config.resolved_scenarios()
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"running the policy tournament ({cell_count} cells; "
        "this takes a while)...",
        file=sys.stderr,
    )
    started = time.perf_counter()
    result = run_tournament(config, workers=args.workers)
    elapsed = time.perf_counter() - started
    print(result.to_markdown(), end="")
    print(f"\n[tournament completed in {elapsed:.1f}s]", file=sys.stderr)
    _write_artifact(args.out, "leaderboard artifact", result.to_json)
    _write_artifact(args.markdown, "leaderboard markdown", result.to_markdown)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint.engine import ALL_RULES, LintUsageError, run_lint

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0
    paths = args.paths
    if not paths:
        if not os.path.isdir("src"):
            print(
                "error: no paths given and no src/ directory here",
                file=sys.stderr,
            )
            return 2
        paths = ["src"]
    select = None
    if args.select:
        select = [code.strip().upper() for code in args.select.split(",") if code.strip()]
    try:
        result = run_lint(paths, select=select)
    except LintUsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(result.to_json())
    elif args.format == "github":
        print(result.render_github())
    else:
        print(result.render_text())
    return 0 if result.clean else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    """List the chaos scenarios with their fault timelines."""
    from repro.faults.scenarios import CHAOS_SCENARIOS

    for scenario in CHAOS_SCENARIOS.values():
        print(scenario.name)
        print(
            f"  pops: {', '.join(scenario.pop_codes)}  "
            f"(probes from {scenario.source_pop}, "
            f"headline target {scenario.target_pop})"
        )
        print(f"  {scenario.description}")
        print(f"  timeline over {args.duration:g}s of probing:")
        print(scenario.describe(args.duration))
        print()
    print("run one with: python -m repro run --faults <scenario>")
    return 0


def _run_captured(
    experiment_id: str, fast: bool, workers: int = 1, what: str = "metrics"
) -> tuple[Experiment, Instrumentation, float]:
    """Run one experiment (by id or harness module name) under a capture.

    The capture uses the default capacities — the same ones parallel
    workers capture under — so the merged stores (and everything derived
    from them) are byte-identical between serial and ``--workers N``.
    """
    exp = _lookup(experiment_id)
    kwargs = _run_kwargs(exp, fast, workers)
    if exp.simulation_backed:
        print(
            f"running {exp.experiment_id} under {what} capture "
            "(full simulation; this takes a while)...",
            file=sys.stderr,
        )
    started = time.perf_counter()
    with capture() as instrumentation:
        exp.run(**kwargs)
    elapsed = time.perf_counter() - started
    _warn_truncation(instrumentation)
    return exp, instrumentation, elapsed


def _warn_truncation(instrumentation: Instrumentation) -> None:
    """Say on stderr which bounded stores kept only part of the run.

    Everything a verb prints is computed from what the stores retained,
    so a saturated store makes it a report on a prefix of the run (the
    trace ring: a suffix).  Stderr only — the artifacts stay byte-stable.
    """
    for name, store in instrumentation.logs():
        if store.dropped > 0:
            print(
                f"warning: {name} dropped {store.dropped} of "
                f"{store.recorded} records "
                f"(retained {len(store)})",
                file=sys.stderr,
            )


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.export import (
        metrics_to_csv,
        metrics_to_json,
        metrics_to_prometheus,
        trace_to_json,
    )

    if args.json and args.prom:
        print("error: give either --json or --prom, not both", file=sys.stderr)
        return 2
    exp, instrumentation, elapsed = _run_captured(
        args.experiment_id, args.fast, args.workers
    )
    experiment_id = exp.experiment_id
    if args.prom:
        print(metrics_to_prometheus(instrumentation.metrics), end="")
    elif args.json:
        # Both documents are ``indent=2`` text already; shifted one level
        # (a newline in JSON text is always layout) they read exactly as
        # they would inside one encoding of the wrapper.
        metrics = metrics_to_json(instrumentation.metrics).replace("\n", "\n  ")
        trace = trace_to_json(instrumentation.trace).replace("\n", "\n  ")
        print(
            f'{{\n  "experiment": {json.dumps(experiment_id)},\n'
            f'  "metrics": {metrics},\n  "trace": {trace}\n}}'
        )
    else:
        print(f"== metrics: {experiment_id} ==")
        print(instrumentation.metrics.render_table())
        totals = instrumentation.trace.totals()
        if totals:
            print("\n== trace event totals ==")
            width = max(len(t.value) for t in totals)
            for event_type, count in sorted(
                totals.items(), key=lambda item: item[0].value
            ):
                print(f"{event_type.value:<{width}}  {count}")
        print(f"\n[{experiment_id} completed in {elapsed:.1f}s]")
    _write_artifact(
        args.csv, "metrics CSV", lambda: metrics_to_csv(instrumentation.metrics)
    )
    return 0


def _cmd_flows(args: argparse.Namespace) -> int:
    from repro.analysis.export import flows_to_json, flows_to_jsonl

    exp, instrumentation, elapsed = _run_captured(
        args.experiment_id, args.fast, args.workers, what="flow"
    )
    experiment_id = exp.experiment_id
    flows = instrumentation.flows
    since, until = args.since, args.until
    if args.json:
        print(flows_to_json(flows, since=since, until=until))
    else:
        records = flows.records(since=since, until=until)
        closed = sum(1 for r in records if r.closed_at is not None)
        by_source: dict[str, int] = {}
        by_state: dict[str, int] = {}
        for record in records:
            by_source[record.cwnd_source] = by_source.get(record.cwnd_source, 0) + 1
            by_state[record.final_state] = by_state.get(record.final_state, 0) + 1
        print(f"== flow records: {experiment_id} ==")
        print(
            f"recorded: {flows.recorded}  retained: {len(flows)}  "
            f"dropped: {flows.dropped}"
        )
        if since is not None or until is not None:
            print(
                f"window [{since if since is not None else 'start'}, "
                f"{until if until is not None else 'end'}]s: "
                f"{len(records)} flows"
            )
        print(f"closed: {closed}  open: {len(records) - closed}")
        print(
            "initial cwnd source: "
            + "  ".join(f"{k}={v}" for k, v in sorted(by_source.items()))
        )
        print(
            "final state: "
            + "  ".join(f"{k}={v}" for k, v in sorted(by_state.items()))
        )
        print(f"\n[{experiment_id} completed in {elapsed:.1f}s]")
    _write_artifact(
        args.jsonl,
        "flow records",
        lambda: flows_to_jsonl(flows, since=since, until=until),
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.export import spans_to_chrome_json, timeline_to_csv
    from repro.obs.report import build_report, render_report, report_to_json

    exp, instrumentation, elapsed = _run_captured(
        args.experiment_id, args.fast, args.workers, what="report"
    )
    report = build_report(
        instrumentation,
        experiment=exp.experiment_id,
        since=args.since,
        until=args.until,
    )
    if args.json:
        print(report_to_json(report))
    else:
        print(render_report(report))
        print(f"\n[{exp.experiment_id} completed in {elapsed:.1f}s]")
    _write_artifact(args.out, "report JSON", lambda: report_to_json(report) + "\n")
    _write_artifact(
        args.spans,
        "Chrome trace",
        lambda: spans_to_chrome_json(instrumentation.spans) + "\n",
    )
    _write_artifact(
        args.timeline_csv,
        "timeline CSV",
        lambda: timeline_to_csv(instrumentation.timeline),
    )
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    from repro.obs.slo import (
        alert_report_to_json,
        alert_report_to_markdown,
        build_alert_report,
        source_matches_arm,
    )

    exp = _lookup(args.experiment_id)
    if args.check and exp.fault_scenario is None:
        print(
            f"error: --check needs an experiment with a fault scenario; "
            f"{exp.experiment_id} has none",
            file=sys.stderr,
        )
        return 2
    _, instrumentation, elapsed = _run_captured(
        args.experiment_id, args.fast, args.workers, what="alert"
    )
    report = build_alert_report(instrumentation.alerts, experiment=exp.experiment_id)
    if args.json:
        print(alert_report_to_json(report), end="")
    else:
        print(alert_report_to_markdown(report), end="")
        print(f"\n[{exp.experiment_id} completed in {elapsed:.1f}s]", file=sys.stderr)
    _write_artifact(
        args.out, "alert report JSON", lambda: alert_report_to_json(report)
    )
    _write_artifact(
        args.markdown, "alert report markdown", lambda: alert_report_to_markdown(report)
    )
    if not args.check:
        return 0

    from repro.experiments.chaos import check_expected_alert
    from repro.faults.scenarios import get_scenario

    scenario = get_scenario(exp.fault_scenario)
    if not scenario.expected_alerts:
        print(
            f"alert check: scenario {scenario.name} declares no expected "
            "alerts; nothing to enforce",
            file=sys.stderr,
        )
        return 0
    episodes = instrumentation.alerts.episodes()
    failures = 0
    for expectation in scenario.expected_alerts:
        arm_episodes = tuple(
            episode
            for episode in episodes
            if source_matches_arm(episode.source, expectation.arm)
        )
        ok, detail = check_expected_alert(expectation, arm_episodes)
        verdict = "ok" if ok else "FAILED"
        print(
            f"alert check [{expectation.arm}]: {detail} -- {verdict}",
            file=sys.stderr,
        )
        if not ok:
            failures += 1
    return 1 if failures else 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.analysis.watch import (
        build_watch_frames,
        render_frame,
        render_watch,
        watch_frames_to_json,
    )
    from repro.obs.slo import DEFAULT_SLO_WINDOW

    exp, instrumentation, elapsed = _run_captured(
        args.experiment_id, args.fast, args.workers, what="watch"
    )
    experiment_id = exp.experiment_id
    frames = build_watch_frames(instrumentation)
    if args.json:
        print(watch_frames_to_json(frames, experiment=experiment_id))
    elif args.speed > 0.0:
        # Paced replay: identical frame lines, wall-clock spacing only.
        print(f"== watch: {experiment_id} ({len(frames)} frames) ==")
        for frame in frames:
            print(render_frame(frame), flush=True)
            time.sleep(DEFAULT_SLO_WINDOW / args.speed)
    else:
        print(render_watch(frames, experiment=experiment_id))
    print(f"\n[{experiment_id} completed in {elapsed:.1f}s]", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    since, until = getattr(args, "since", None), getattr(args, "until", None)
    if since is not None and until is not None and since > until:
        parser.error(f"argument --since: must be <= --until, got {since:g} > {until:g}")
    try:
        return args.handler(args)
    except KeyError as error:
        # get_experiment / get_scenario name the unknown id and the known ones.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
