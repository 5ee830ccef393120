"""Line-level reachability census: the lines of ``src/repro`` that no
shipped run executes.

Every command of ``COMMANDS`` runs in a child interpreter under a
``sys.settrace`` line collector: the CLI verbs with each of their options,
every registry experiment under ``run --fast``, ``examples/*.py``, each
``benchmarks/`` module under pytest, and ``bench/worker.py`` on each
benchmark workload.  A code object stops being traced once every one of
its lines has been seen.  The parent unions what the children saw and
counts, per function, the executable lines that never ran.

Exempt by rule, not per entry: ``raise`` statements, the bodies of
``__repr__`` and ``__str__``, ``if TYPE_CHECKING:`` blocks, and the
forked-worker side of ``parallel/executor.py`` (``_FORKED``), which runs
in a process the parent's tracer cannot see.  Every other never-run line
needs an entry in ``ENTRIES``: ``"module:qualname": (lines, reason)``.
Keys hold no line numbers, so an edit elsewhere in a file leaves them
alone.  The census fails when a function has never-run lines and no
entry, when it has more than its entry allows, and when an entry allows
more than were measured (a stale entry).

Not part of the tier-1 suite: it takes about 15 minutes on two cores.
Run it with ``make reach``, or::

    PYTHONPATH=src python tests/hygiene/census.py [--jobs N] [--print]
        [--save PATH | --load PATH]

``--print`` writes the measured counts as ``ENTRIES`` lines, each
keeping its current reason; ``--save`` keeps the lines seen, and
``--load`` counts them again without running anything (after an edit to
``ENTRIES``, or to plant a fault in the census itself).  Line tables differ between Python versions;
the entries are measured on 3.11, as CI's ``reachability`` job runs it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"

#: Registry ids, in ``repro list`` order.
_MODEL_IDS = ("fig02", "fig03", "fig04", "fig05", "fig06", "table2")
_SIMULATION_IDS = (
    "fig10", "fig11", "fig12_14", "fig15_16", "edge_cases", "hybrid",
    "ext_diurnal", "ext_advisory", "chaos_lossy_agent", "chaos_partition",
    "chaos_flaky_tools", "tournament",
)
#: The experiments the capture verbs run: a chaos study with faults, SLO
#: alerts and probes, and a sweep given by its harness module's name.
_CAPTURED = ("chaos_lossy_agent", "fig10_cmax_sweep")

#: ``(kind, arguments)``; ``{tmp}`` is a scratch directory of the child's
#: own.  ``cli`` runs ``python -m repro``, ``script`` a file, ``pytest``
#: pytest on one path, ``bench`` ``bench/worker.py``.
COMMANDS: list[tuple[str, tuple[str, ...]]] = [
    ("cli", ("list",)),
    *[("cli", ("describe", id_)) for id_ in _MODEL_IDS + _SIMULATION_IDS],
    *[("cli", ("run", id_)) for id_ in _MODEL_IDS],
    *[("cli", ("run", id_, "--fast")) for id_ in _MODEL_IDS + _SIMULATION_IDS],
    ("cli", ("run", "fig12_14", "--fast", "--workers", "2")),
    ("cli", ("faults",)),
    ("cli", ("faults", "--duration", "30")),
    ("cli", ("lint",)),
    ("cli", ("lint", "{src}")),
    ("cli", ("lint", "{src}", "--format", "json")),
    ("cli", ("lint", "{src}", "--format", "github")),
    ("cli", ("lint", "{src}", "--select", "DET001,FLT001")),
    ("cli", ("lint", "--list-rules")),
    ("cli", (
        "tournament", "--fast", "--workers", "1", "--policies", "iw10", "ewma",
        "--scenarios", "clean", "chaos_flaky_tools", "hybrid",
        "--out", "{tmp}/leaderboard.json", "--markdown", "{tmp}/leaderboard.md",
    )),
    ("cli", (
        "tournament", "--fast", "--workers", "2", "--policies", "iw10", "ewma",
        "--scenarios", "clean", "chaos_flaky_tools", "hybrid",
    )),
    *[
        ("cli", (verb, id_, "--fast", "--workers", workers, *options))
        for id_ in _CAPTURED
        for workers in ("1", "2")
        for verb, options in (
            ("metrics", ()),
            ("metrics", ("--json",)),
            ("metrics", ("--prom", "--csv", "{tmp}/metrics.csv")),
            ("flows", ("--jsonl", "{tmp}/flows.jsonl", "--since", "10", "--until", "40")),
            ("flows", ("--json",)),
            ("report", (
                "--out", "{tmp}/report.json", "--spans", "{tmp}/spans.json",
                "--timeline-csv", "{tmp}/timeline.csv",
            )),
            ("report", ("--json", "--since", "10", "--until", "40")),
            ("alerts", ("--out", "{tmp}/alerts.json", "--markdown", "{tmp}/alerts.md")),
            ("alerts", ("--json",)),
            ("watch", ()),
            ("watch", ("--speed", "1000")),
            ("watch", ("--json",)),
        )
    ],
    ("cli", ("alerts", "chaos_lossy_agent", "--fast", "--check")),
    *[("script", (str(path.relative_to(REPO)),)) for path in sorted((REPO / "examples").glob("*.py"))],
    *[("pytest", (str(path.relative_to(REPO)),)) for path in sorted((REPO / "benchmarks").glob("test_*.py"))],
    *[
        ("bench", (workload, *options))
        for workload, options in (
            ("probe_study", ()),
            ("bulk_transfer", ()),
            ("bulk_transfer", ("--instrumented",)),
            ("fluid_hybrid", ()),
            ("fluid_hybrid", ("--reference",)),
            ("chaos_forensics", ()),
        )
    ],
]

#: Functions that run only in a forked worker, out of the parent's sight.
_FORKED = {"repro.parallel.executor:_run_forked.<locals>.worker_main"}

#: Why a never-run line stays, by kind.  An entry names one of these, or
#: says more in its own words.
_LINT = (
    "a lint rule's finding or parse path: it runs on code that breaks the rule, "
    "and the shipped tree is clean; tests/analysis/test_lint_*.py feed it hazards"
)
_ERROR = (
    "error handling: a failure no shipped run meets (an unknown name, a bad "
    "argument, a failed tool, socket or worker); kept, and tested where it can be"
)
_CLI = "the CLI refusing or warning about input that no shipped command line gives"
_EDGE = (
    "an edge of the function's input (empty, zero, a bound, a repeat call) that "
    "no shipped run reaches; kept as part of its contract"
)
_COMBINATION = (
    "reached by dispatch in a combination no shipped run builds; the tests build it"
)
_LIFECYCLE = (
    "stopping or restarting a component, which no shipped run does before it "
    "ends; the tests drive the lifecycle"
)
_OBSERVE = "a read-only view the tests observe the model through"
_DUNDER = "Python calls it (==, <, len, in) for the tests; no shipped run does"
_ORACLE = "a reference the tests compare against"
_DELAYED_ACK = (
    "TcpConfig.delayed_ack's path; the packet-path golden, the slow-start oracle "
    "and the close matrix set it (_NEVER_SET_FIELDS)"
)
_HYBRID = (
    "the hybrid differential's comparisons, a reference tests/experiments/"
    "test_hybrid.py holds the fluid engine to"
)

#: ``"module:qualname": (never-run lines, reason)``.
ENTRIES: dict[str, tuple[int, str]] = {
    "repro.__main__:<module>": (
        4,
        "the exit for a closed stdout pipe (`repro lint src/ | head`); "
        "tests/analysis/test_lint_engine.py drives it",
    ),
    "repro.analysis.cdf:EmpiricalCdf.quantile": (3, _EDGE),
    "repro.analysis.export:_prom_value": (1, _EDGE),
    "repro.analysis.lint.base:Finding.render": (1, _LINT),
    "repro.analysis.lint.base:Rule.applies_to": (1, _LINT),
    "repro.analysis.lint.base:module_name_for": (2, _LINT),
    "repro.analysis.lint.det001:_Visitor._check_attribute_call": (7, _LINT),
    "repro.analysis.lint.det001:_Visitor.visit_Call": (1, _LINT),
    "repro.analysis.lint.det001:_Visitor.visit_Import": (1, _LINT),
    "repro.analysis.lint.det001:_Visitor.visit_ImportFrom": (12, _LINT),
    "repro.analysis.lint.det002:_Visitor._visit_comprehension": (1, _LINT),
    "repro.analysis.lint.det002:_Visitor.visit_AsyncFunctionDef": (1, _LINT),
    "repro.analysis.lint.det002:_classify": (2, _LINT),
    "repro.analysis.lint.det003:_Visitor._report": (5, _LINT),
    "repro.analysis.lint.det003:_Visitor.visit_Call": (4, _LINT),
    "repro.analysis.lint.det003:_Visitor.visit_Compare": (3, _LINT),
    "repro.analysis.lint.det003:_contains": (1, _LINT),
    "repro.analysis.lint.det003:_is_id_call": (1, _LINT),
    "repro.analysis.lint.engine:LintResult.counts": (1, _LINT),
    "repro.analysis.lint.engine:LintResult.render_github": (2, _LINT),
    "repro.analysis.lint.engine:LintResult.render_text": (1, _LINT),
    "repro.analysis.lint.engine:LintResult.to_json": (6, _LINT),
    "repro.analysis.lint.engine:_display_path": (1, _LINT),
    "repro.analysis.lint.engine:_inline_suppressed": (3, _LINT),
    "repro.analysis.lint.engine:collect_files": (2, _LINT),
    "repro.analysis.lint.engine:find_project_root": (1, _LINT),
    "repro.analysis.lint.engine:run_lint": (10, _LINT),
    "repro.analysis.lint.engine:select_rules": (1, _LINT),
    "repro.analysis.lint.flt001:Flt001FloatIdentity.applies_to": (1, _LINT),
    "repro.analysis.lint.flt001:_ClassFacts.is_float": (1, _LINT),
    "repro.analysis.lint.flt001:_ClassFacts.is_float_seq": (4, _LINT),
    "repro.analysis.lint.flt001:_Visitor._is_float_element": (3, _LINT),
    "repro.analysis.lint.flt001:_Visitor._is_float_sequence": (5, _LINT),
    "repro.analysis.lint.flt001:_Visitor.visit_AugAssign": (5, _LINT),
    "repro.analysis.lint.flt001:_Visitor.visit_Call": (5, _LINT),
    "repro.analysis.lint.flt001:_statements": (1, _LINT),
    "repro.analysis.lint.obs001:Obs001TaxonomyDrift.finalize": (17, _LINT),
    "repro.analysis.lint.obs001:_receiver_mentions_span": (3, _LINT),
    "repro.analysis.lint.sim001:_Visitor._check_store_target": (6, _LINT),
    "repro.analysis.lint.sim001:_Visitor.visit_Call": (7, _LINT),
    "repro.analysis.lint.sim001:_Visitor.visit_ImportFrom": (3, _LINT),
    "repro.analysis.lint.slot001:_check_class": (7, _LINT),
    "repro.analysis.lint.slot001:_collect_classes": (3, _LINT),
    "repro.analysis.lint.slot001:_is_dataclass_with_slots": (1, _LINT),
    "repro.analysis.lint.slot001:_literal_slots": (4, _LINT),
    "repro.analysis.lint.slot001:_resolve_allowed": (2, _LINT),
    "repro.analysis.stats:PercentileGain.gain": (1, _EDGE),
    "repro.analysis.watch:build_watch_frames": (1, _EDGE),
    "repro.cdn.cluster:CdnCluster._deployment": (1, _ERROR),
    "repro.cdn.cluster:CdnCluster.start_slo": (1, _EDGE),
    "repro.cdn.cluster:CdnCluster.start_timeline_sampler": (1, _EDGE),
    "repro.cdn.filesizes:FileSizeDistribution.cdf": (1, _EDGE),
    "repro.cdn.fluidtraffic:FluidTraffic._step": (
        4,
        "fluid cohorts over a downed trunk; tests/cdn/test_fluidtraffic.py downs one",
    ),
    "repro.cdn.fluidtraffic:FluidTraffic.add_population": (2, _COMBINATION),
    "repro.cdn.fluidtraffic:FluidTraffic.mean_window": (1, _EDGE),
    "repro.cdn.fluidtraffic:FluidTraffic.socket_stats_for": (2, _EDGE),
    "repro.cdn.fluidtraffic:FluidTraffic.stop": (3, _LIFECYCLE),
    "repro.cdn.monitors:CwndSampler.stop": (1, _LIFECYCLE),
    "repro.cdn.probes:ProbeFleet._issue.<locals>.on_complete": (2, _ERROR),
    "repro.cdn.probes:ProbeResultSet.__len__": (1, _DUNDER),
    "repro.cdn.transfer:TransferClient._drop_socket": (6, _ERROR),
    "repro.cdn.transfer:TransferClient._on_error": (1, _ERROR),
    "repro.cdn.transfer:TransferClient._on_message": (2, _ERROR),
    "repro.cdn.transfer:TransferServer._on_message": (1, _ERROR),
    "repro.cdn.workload:OrganicWorkload._arrival": (1, _EDGE),
    "repro.cdn.workload:OrganicWorkload._schedule_next_arrival": (1, _EDGE),
    "repro.cdn.workload:OrganicWorkload.start": (1, _EDGE),
    "repro.cdn.workload:OrganicWorkload.stop": (1, _LIFECYCLE),
    "repro.cli:_checked.<locals>.parse": (2, _CLI),
    "repro.cli:_cmd_alerts": (10, _CLI),
    "repro.cli:_cmd_lint": (7, _CLI),
    "repro.cli:_cmd_metrics": (2, _CLI),
    "repro.cli:_cmd_tournament": (3, _CLI),
    "repro.cli:_run_kwargs": (3, _CLI),
    "repro.cli:_warn_truncation": (5, _CLI),
    "repro.cli:main": (4, _CLI),
    "repro.core.agent:RiptideAgent._expire": (
        1,
        "an expiry on a guarded agent; tests/core/test_agent.py TestGuardedAgent "
        "covers it",
    ),
    "repro.core.agent:RiptideAgent._retry": (
        2,
        "the withdraw rung: no shipped run fails an `ip route del`; "
        "tests/faults/test_resilience.py drives it",
    ),
    "repro.core.agent:RiptideAgent._route_command": (1, _ERROR),
    "repro.core.agent:RiptideAgent.stop": (8, _LIFECYCLE),
    "repro.core.combiners:make_combiner": (2, _ERROR),
    "repro.core.guard:SafetyGuard.forget": (
        1,
        "an expiry on a guarded agent; tests/core/test_agent.py TestGuardedAgent "
        "covers it",
    ),
    "repro.core.history:WindowedHistory.forget": (1, _COMBINATION),
    "repro.core.history:make_history_policy": (2, _ERROR),
    "repro.core.kernel_mode:KernelModeAgent._apply_window": (1, _EDGE),
    "repro.core.kernel_mode:KernelModeAgent.installed_window": (1, _EDGE),
    "repro.core.kernel_mode:KernelModeAgent.start": (1, _EDGE),
    "repro.core.kernel_mode:KernelModeAgent.stop": (3, _LIFECYCLE),
    "repro.core.observed:LearnedTable.__contains__": (1, _DUNDER),
    "repro.experiments.chaos:ChaosStudyResult.median_gain": (2, _EDGE),
    "repro.experiments.chaos:ChaosStudyResult.report": (6, _EDGE),
    "repro.experiments.chaos:ChaosStudyResult.riptide_holds_up": (1, _EDGE),
    "repro.experiments.chaos:check_expected_alert": (2, _ERROR),
    "repro.experiments.edge_cases:DestinationExtremes.max_change": (1, _EDGE),
    "repro.experiments.edge_cases:DestinationExtremes.min_change": (1, _EDGE),
    "repro.experiments.edge_cases:EdgeCasesResult.fraction_min_within": (1, _EDGE),
    "repro.experiments.edge_cases:build_result": (1, _EDGE),
    "repro.experiments.ext_diurnal:DiurnalResult.relearning_penalty": (1, _EDGE),
    "repro.experiments.fig10_cmax_sweep:Fig10Result.median_increase_vs_control": (1, _EDGE),
    "repro.experiments.fig12_14_probe_times:BucketComparison.fraction_improved": (1, _EDGE),
    "repro.experiments.fig12_14_probe_times:BucketComparison.median_gain": (1, _EDGE),
    "repro.experiments.hybrid:HybridDifferentialResult.advisory_max_rel_delta": (7, _HYBRID),
    "repro.experiments.hybrid:HybridDifferentialResult.advisory_pairs": (6, _HYBRID),
    "repro.experiments.hybrid:HybridDifferentialResult.anchor_max_rel_delta": (2, _HYBRID),
    "repro.experiments.hybrid:HybridDifferentialResult.anchor_median_deltas": (15, _HYBRID),
    "repro.experiments.hybrid:HybridDifferentialResult.first_window_fractions.<locals>.fraction": (1, _EDGE),
    "repro.experiments.hybrid:HybridDifferentialResult.report": (18, _HYBRID),
    "repro.experiments.hybrid:run_arm": (1, _HYBRID),
    "repro.experiments.registry:get_experiment": (2, _ERROR),
    "repro.experiments.tournament:_percentile_ms": (1, _EDGE),
    "repro.experiments.tournament:build_leaderboard": (1, _EDGE),
    "repro.faults.scenarios:get_scenario": (1, _ERROR),
    "repro.faults.scenarios:scenario_names": (
        1,
        "lists the known scenarios in get_scenario's error; tests read it",
    ),
    "repro.faults.spec:FaultSchedule.__len__": (1, _DUNDER),
    "repro.linux.host:Host._reset": (
        3,
        "an RST for a segment no socket owns: no shipped run sends one; "
        "tests/linux/test_reboot.py covers it",
    ),
    "repro.linux.host:Host.initrwnd_for": (1, _COMBINATION),
    "repro.linux.host:Host.receive_packet": (2, _EDGE),
    "repro.linux.ip_tool:IpRouteTool._as_prefix": (1, _EDGE),
    "repro.linux.ip_tool:IpRouteTool.route_add": (
        5,
        "the `ip route add` row of PAPER.md's mechanism table; bench/tracer.py's "
        "PATCH_TARGETS patch it",
    ),
    "repro.linux.ip_tool:IpRouteTool.route_get": (
        1,
        "tests in 5 files assert routes through it (_UNNAMED_FUNCTIONS)",
    ),
    "repro.linux.route:RouteEntry.format_linux": (1, _COMBINATION),
    "repro.linux.route:RouteTable.add": (2, "`ip route add`'s path (IpRouteTool.route_add)"),
    "repro.linux.ss_tool:SsTool.tcp_info": (4, _COMBINATION),
    "repro.model.gain:gain_fraction": (1, _EDGE),
    "repro.model.slowstart:rounds_schedule": (3, _ORACLE),
    "repro.model.slowstart:rtts_to_complete": (1, _EDGE),
    "repro.net.addresses:IPv4Address.__eq__": (1, _DUNDER),
    "repro.net.addresses:IPv4Address.__lt__": (1, _DUNDER),
    "repro.net.addresses:Prefix.__eq__": (1, _DUNDER),
    "repro.net.addresses:Prefix.parse": (1, _EDGE),
    "repro.net.addresses:_mask_for": (1, _EDGE),
    "repro.net.link:DuplexLink.up": (1, _OBSERVE),
    "repro.net.link:Link._deliver": (2, _COMBINATION),
    "repro.net.link:Link.queue_depth": (2, _OBSERVE),
    "repro.net.link:Link.set_down": (8, _COMBINATION),
    "repro.net.loss:BernoulliLoss.should_drop": (
        3,
        "the LossModel draw that Link.transmit inlines for an exact BernoulliLoss; "
        "tests/net/test_loss.py holds it",
    ),
    "repro.net.loss:GilbertElliottLoss.mean_loss_rate": (
        5,
        "fluid cohorts over a trunk that loses in bursts; "
        "tests/cdn/test_fluidtraffic.py builds one",
    ),
    "repro.net.loss:LossModel.mean_loss_rate": (
        1,
        "the default for a loss model with no stationary mean; the tests' scripted "
        "loss models inherit it",
    ),
    "repro.net.loss:NoLoss.should_drop": (1, _COMBINATION),
    "repro.net.network:IntraZoneHop.transmit": (3, _COMBINATION),
    "repro.net.network:Network._resolve": (1, _COMBINATION),
    "repro.net.network:Network.deliver": (5, _COMBINATION),
    "repro.obs.audit:Auditor.check": (1, _EDGE),
    "repro.obs.flow:FlowLog.begin": (1, _EDGE),
    "repro.obs.flow:FlowLog.records": (1, _EDGE),
    "repro.obs.metrics:MetricsRegistry.__len__": (1, _DUNDER),
    "repro.obs.metrics:MetricsRegistry.render_table": (1, _EDGE),
    "repro.obs.report:_attribute": (4, _COMBINATION),
    "repro.obs.report:_covering_guard": (3, _EDGE),
    "repro.obs.report:build_report": (1, _EDGE),
    "repro.obs.report:render_report": (9, _COMBINATION),
    "repro.obs.slo:AlertLog.begin": (1, _EDGE),
    "repro.obs.slo:source_matches_arm": (1, _EDGE),
    "repro.obs.span:SpanLog.begin": (1, _EDGE),
    "repro.obs.trace:TraceEvent.format": (2, _OBSERVE),
    "repro.obs.tsdb:WindowedStore.sum_ratio": (1, _EDGE),
    "repro.obs.tsdb:WindowedStore.window_values": (1, _EDGE),
    "repro.parallel.executor:WorkerFailure.__init__": (8, _ERROR),
    "repro.parallel.executor:_collect": (6, _ERROR),
    "repro.parallel.executor:_resolve": (1, _ERROR),
    "repro.parallel.executor:_run_forked": (2, _ERROR),
    "repro.parallel.executor:_run_serial": (1, _ERROR),
    "repro.parallel.executor:default_workers": (1, _EDGE),
    "repro.parallel.executor:run_tasks": (3, _EDGE),
    "repro.policy.learners:RttClassPolicy.cap_for": (1, _EDGE),
    "repro.policy.registry:make_policy": (2, _ERROR),
    "repro.policy.tunable:TunablePolicy._recover": (
        2,
        "AIMD recovery after a guard trip: no shipped tunable arm trips the guard; "
        "tests/policy/test_zoo.py drives it",
    ),
    "repro.policy.tunable:TunablePolicy.forget": (1, _COMBINATION),
    "repro.sim.events:Event.__init__": (
        6,
        "the kernel allocates handles with Event.__new__; tests/sim/test_events.py "
        "builds them directly",
    ),
    "repro.sim.events:Event.__lt__": (
        1,
        "the kernel's heap orders entry tuples, not handles; tests/sim/test_events.py "
        "orders handles",
    ),
    "repro.sim.fluid:CwndDistribution.add_mass": (3, _EDGE),
    "repro.sim.fluid:CwndDistribution.bin_to_window": (1, _OBSERVE),
    "repro.sim.fluid:CwndDistribution.mean": (3, _OBSERVE),
    "repro.sim.fluid:CwndDistribution.quantile": (11, _OBSERVE),
    "repro.sim.fluid:CwndDistribution.sample_windows": (1, _EDGE),
    "repro.sim.fluid:CwndDistribution.step": (5, _EDGE),
    "repro.sim.fluid:CwndDistribution.total_send_segments_per_sec": (1, _EDGE),
    "repro.sim.fluid:CwndDistribution.total_window_segments": (1, _EDGE),
    "repro.sim.fluid:CwndDistribution.window_to_bin": (2, _EDGE),
    "repro.sim.fluid:FluidPopulation.mean_window": (1, _OBSERVE),
    "repro.sim.kernel:Simulator._next_live_time": (2, _EDGE),
    "repro.sim.kernel:Simulator.cancel": (1, _EDGE),
    "repro.sim.kernel:Simulator.pending_events": (
        1,
        "bench/tracer.py reads it in a traced repeat, and tests count live events "
        "with it",
    ),
    "repro.sim.kernel:Simulator.run": (1, _EDGE),
    "repro.sim.process:PeriodicProcess.start": (1, _EDGE),
    "repro.sim.rand:RandomStreams.stream": (1, _EDGE),
    "repro.tcp.cc.cubic:Cubic._begin_epoch": (1, _EDGE),
    "repro.tcp.cc.reno:Reno._avoid_congestion": (1, _COMBINATION),
    "repro.tcp.cc.reno:Reno.on_loss_event": (1, _COMBINATION),
    "repro.tcp.cc:make_congestion_control": (2, _ERROR),
    "repro.tcp.rto:RttEstimator.samples": (1, _OBSERVE),
    "repro.tcp.socket:TcpSocket._cancel_delack": (2, _DELAYED_ACK),
    "repro.tcp.socket:TcpSocket._close_transition": (1, _EDGE),
    "repro.tcp.socket:TcpSocket._error": (1, _ERROR),
    "repro.tcp.socket:TcpSocket._on_delayed_ack_timer": (3, _DELAYED_ACK),
    "repro.tcp.socket:TcpSocket._on_rto": (3, _ERROR),
    "repro.tcp.socket:TcpSocket._process_incoming_data": (6, _DELAYED_ACK),
    "repro.tcp.socket:TcpSocket._send_pure_ack": (1, _DELAYED_ACK),
    "repro.tcp.socket:TcpSocket.abort": (
        4,
        "tests/tcp/test_close_matrix.py drives abort() (_UNNAMED_FUNCTIONS)",
    ),
    "repro.tcp.socket:TcpSocket.close": (3, _EDGE),
    "repro.tcp.socket:TcpSocket.config": (1, _OBSERVE),
    "repro.tcp.socket:TcpSocket.handle_segment": (1, _EDGE),
    "repro.tcp.socket:TcpSocket.sync_flow": (1, _EDGE),
    "repro.tcp.socket:TcpSocket.vanish": (1, _EDGE),
}


# ----------------------------------------------------------------------
# child: run one command under the line collector
# ----------------------------------------------------------------------


def _collector(prefix: str) -> tuple[dict[str, set[int]], object]:
    """``(seen, trace)``: ``seen`` maps a file under ``prefix`` to the lines
    ``trace`` saw run.  A code object is no longer traced once its lines
    have all been seen.
    """
    seen: dict[str, set[int]] = {}
    left: dict[object, set[int] | None] = {}  # code -> lines not yet seen

    def trace(frame, event, arg):
        code = frame.f_code
        if code in left:
            lines = left[code]
        else:
            lines = left[code] = None
            if code.co_filename.startswith(prefix):
                lines = left[code] = _lines(code)
                seen.setdefault(code.co_filename, set())
        if not lines:
            return None
        found = seen[code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                found.add(line)
                lines.discard(line)
                if not lines:
                    return None
            return local

        return local

    return seen, trace


def _lines(code) -> set[int]:
    """The lines a code object can report as run: its line table, less
    the ``def`` line a function's first instruction carries (the enclosing
    code runs that line) and the module's line 0.
    """
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


def _child(out: str, kind: str, args: list[str]) -> None:
    seen, trace = _collector(str(PACKAGE))
    started = time.perf_counter()
    argv = sys.argv
    # A forked worker's lines die with it: do not pay for tracing them.
    os.register_at_fork(after_in_child=lambda: sys.settrace(None))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        if kind == "cli":
            sys.argv = ["repro", *args]
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        elif kind == "script":
            sys.argv = list(args)
            sys.path.insert(0, str(REPO / Path(args[0]).parent))
            runpy.run_path(str(REPO / args[0]), run_name="__main__")
        elif kind == "pytest":
            import pytest

            code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
            if code != 0:
                raise SystemExit(code)
        elif kind == "bench":
            sys.argv = ["worker.py", args[0], "--seed", "42", "--spawned-at", str(time.monotonic()), *args[1:]]
            sys.path.insert(0, str(REPO / "bench"))
            runpy.run_path(str(REPO / "bench" / "worker.py"), run_name="__main__")
    except SystemExit as stop:
        if stop.code not in (None, 0):
            raise
    finally:
        sys.settrace(None)
        threading.settrace(None)
        sys.argv = argv
    elapsed = time.perf_counter() - started
    Path(out).write_text(json.dumps({"seconds": elapsed, "seen": {f: sorted(s) for f, s in seen.items()}}))


# ----------------------------------------------------------------------
# parent: run the commands, count the never-run lines
# ----------------------------------------------------------------------


def _run_all(jobs: int) -> tuple[dict[str, set[int]], list[tuple[float, str]]]:
    """Run ``COMMANDS``, ``jobs`` children at a time; the union of the
    lines they saw and each command's traced seconds."""
    seen: dict[str, set[int]] = {}
    timings = []
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        pending = list(enumerate(COMMANDS))
        running = []
        while pending or running:
            while pending and len(running) < jobs:
                index, (kind, args) = pending.pop(0)
                tmp = Path(scratch) / str(index)
                tmp.mkdir()
                args = [a.format(tmp=tmp, src=PACKAGE) for a in args]
                with open(tmp / "stderr", "w") as stderr:
                    process = subprocess.Popen(
                        [sys.executable, __file__, "--child", str(tmp / "seen.json"), kind, *args],
                        cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=stderr,
                    )
                running.append((process, tmp, f"{kind} {' '.join(args)}"))
            done = [entry for entry in running if entry[0].poll() is not None]
            if not done:
                time.sleep(0.1)
            for process, tmp, label in done:
                running.remove((process, tmp, label))
                if process.returncode != 0:
                    stderr = (tmp / "stderr").read_text()
                    raise SystemExit(f"census: `{label}` exited {process.returncode}:\n{stderr}")
                result = json.loads((tmp / "seen.json").read_text())
                timings.append((result["seconds"], label))
                for filename, lines in result["seen"].items():
                    seen.setdefault(filename, set()).update(lines)
    return seen, timings


def _module(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _owners(code, key: str, owner: dict[int, str]) -> None:
    """Give each line of ``code`` and of the code nested in it to the
    innermost function or class that holds it; a lambda's or a
    comprehension's lines belong to where it is written.
    """
    for line in _lines(code):
        owner.setdefault(line, key)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            named = not const.co_name.startswith("<")
            nested = {}
            _owners(const, f"{key.split(':')[0]}:{const.co_qualname}" if named else key, nested)
            owner.update(nested)


def _exempt(tree: ast.Module, owner: dict[int, str]) -> set[int]:
    """The lines of a file that the rules exempt."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exempt.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            exempt.update(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    for line, key in owner.items():
        qualname = key.split(":", 1)[1]
        if key in _FORKED or any(
            part in ("__repr__", "__str__") for part in qualname.split(".")
        ):
            exempt.add(line)
    return exempt


def census(seen: dict[str, set[int]]) -> tuple[Counter, dict[str, int]]:
    """Never-run, non-exempt lines per ``module:qualname``, and totals."""
    never: Counter = Counter()
    totals = Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module(path)
        source = path.read_text()
        owner: dict[int, str] = {}
        _owners(compile(source, str(path), "exec"), f"{module}:<module>", owner)
        exempt = _exempt(ast.parse(source), owner)
        ran = seen.get(str(path), set())
        for line, key in owner.items():
            totals["executable"] += 1
            if line in ran:
                continue
            totals["never run"] += 1
            if line in exempt:
                totals["exempt"] += 1
            else:
                never[key] += 1
    totals["never run, not exempt"] = sum(never.values())
    return never, dict(totals)


def check(never: Counter) -> list[str]:
    """What is wrong with ``ENTRIES`` against a measured census."""
    problems = []
    for key in sorted(set(never) | set(ENTRIES)):
        measured, allowed = never.get(key, 0), ENTRIES.get(key, (0, ""))[0]
        if measured and key not in ENTRIES:
            problems.append(f"{key}: {measured} never-run line(s) and no entry")
        elif measured > allowed:
            problems.append(f"{key}: {measured} never-run line(s), entry allows {allowed}")
        elif measured < allowed:
            problems.append(f"{key}: stale entry, allows {allowed} but {measured} measured")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2, help="children run at once")
    parser.add_argument("--print", action="store_true", help="print the measured ENTRIES")
    parser.add_argument("--save", metavar="PATH", help="also write the lines seen to PATH")
    parser.add_argument(
        "--load", metavar="PATH", help="count the lines a --save wrote instead of running"
    )
    args = parser.parse_args(argv)
    if args.load:
        seen = {f: set(lines) for f, lines in json.loads(Path(args.load).read_text()).items()}
    else:
        started = time.monotonic()
        seen, timings = _run_all(args.jobs)
        wall = time.monotonic() - started
        for seconds, label in sorted(timings, reverse=True)[:10]:
            print(f"{seconds:8.1f} s  {label}")
        print(f"{len(COMMANDS)} commands, {wall:.0f} s wall, {sum(s for s, _ in timings):.0f} s traced")
    if args.save:
        Path(args.save).write_text(json.dumps({f: sorted(lines) for f, lines in seen.items()}))
    never, totals = census(seen)
    print(", ".join(f"{name}: {count}" for name, count in totals.items()))
    if args.print:
        for key in sorted(never):
            reason = ENTRIES.get(key, (0, ""))[1]
            print(f'    "{key}": ({never[key]}, {json.dumps(reason)}),')
    problems = check(never)
    for problem in problems:
        print(problem)
    print(f"{len(problems)} problem(s) in {len(ENTRIES)} entries")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2], sys.argv[3], sys.argv[4:])
    else:
        sys.exit(main())
