"""Golden fixture for the paired-study sequence and what is built on it.

``tests/data/study_golden.json`` records sha256 digests of the artifacts
every study family produces — the tournament leaderboard (clean, chaos
and fluid cells), the hybrid differential (both arms, two seeds), a short
34-PoP hybrid scale run and the chaos study, alert and forensic reports —
so that a change to *how* the
study sequence is written can be shown to leave what it computes alone.
It is the sibling of ``tests/tcp/test_packet_path_golden.py``, which
pins the per-packet path and the probe and lossy-agent studies' stores.

Everything is driven through the CLI or a public entry point, under the
``--fast`` clock, so the digests also pin what ``--fast`` means.

This module is both the test and the generator.  When behaviour is
*meant* to change, refresh the fixture from the repository root; the
refresh prints what moved (``tests/golden.py``)::

    PYTHONPATH=src python -m tests.experiments.test_study_golden
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Any

from repro.analysis.export import flows_to_jsonl, trace_to_json
from repro.cli import _run_captured, main
from repro.experiments.hybrid import (
    HybridScaleConfig,
    HybridStudyConfig,
    run_differential,
    run_scale,
)
from repro.obs.instrument import capture
from repro.obs.report import build_report, report_to_json
from repro.obs.slo import alert_report_to_json, build_alert_report
from repro.obs.trace import EventType
from tests.golden import assert_canonical, assert_matches, refresh, sha256

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "study_golden.json"

#: A learner and the fixed-window control: the two ends of the zoo.
TOURNAMENT_POLICIES = ("ewma", "iw10")
DIFFERENTIAL_SEEDS = (7, 42)
#: The registry's ``hybrid --fast`` shape: full topology, fewer flows, 8 s.
SCALE_CONFIG = HybridScaleConfig(seed=7, flows_per_pair=100.0, warmup=3.0, duration=5.0)


def _cli_stdout(argv: list[str]) -> str:
    """What ``python -m repro <argv>`` prints, minus its wall-time line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    lines = out.getvalue().splitlines(keepends=True)
    return "".join(line for line in lines if "completed in" not in line)


def build_tournament() -> dict[str, Any]:
    """``repro tournament --fast``: 2 policies x all 5 scenario columns."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "leaderboard.json"
        markdown = _cli_stdout(
            ["tournament", "--fast", "--policies", *TOURNAMENT_POLICIES, "--out", str(path)]
        )
        artifact = path.read_text()
    cells = json.loads(artifact)["cells"]
    return {
        "leaderboard_json_sha256": sha256(artifact),
        "leaderboard_markdown_sha256": sha256(markdown),
        "cells": [f"{cell['policy']}/{cell['scenario']}" for cell in cells],
    }


def _probe_rows(arm: Any) -> list[list[object]]:
    return [
        [
            probe.source_pop,
            probe.destination_pop,
            probe.size_bytes,
            probe.new_connection,
            repr(probe.total_time) if probe.completed else None,
        ]
        for probe in arm.fleet.results
    ]


def build_hybrid_differential() -> dict[str, Any]:
    """``hybrid.run_differential`` at two seeds: both arms, every store."""
    digests = {}
    for seed in DIFFERENTIAL_SEEDS:
        with capture() as obs:
            result = run_differential(HybridStudyConfig(seed=seed))
        arms = {"packet": result.packet, "hybrid": result.hybrid}
        digests[str(seed)] = {
            "advisories_sha256": sha256(
                json.dumps(
                    {
                        name: sorted([*key, window] for key, window in arm.advisories.items())
                        for name, arm in arms.items()
                    }
                )
            ),
            "probe_rows_sha256": sha256(
                json.dumps({name: _probe_rows(arm) for name, arm in arms.items()})
            ),
            "flows_sha256": sha256(flows_to_jsonl(obs.flows)),
            "trace_sha256": sha256(trace_to_json(obs.trace)),
            "report_sha256": sha256(result.report()),
        }
    return digests


def build_hybrid_scale() -> dict[str, Any]:
    """``hybrid.run_scale`` on the ``--fast`` shape: the fluid/agent loop.

    The learned windows are read back from the trace (the last
    ``route_installed`` per host and destination): ``run_scale`` returns
    only their count.
    """
    with capture() as obs:
        result = run_scale(SCALE_CONFIG)
    assert obs.trace.dropped == 0
    learned: dict[str, dict[str, int]] = {}
    for event in obs.trace.events():
        if event.type is not EventType.ROUTE_INSTALLED:
            continue
        details = dict(event.details)
        learned.setdefault(event.source, {})[details["destination"]] = details["window"]
    stable = [line for line in result.report().splitlines() if "wall time" not in line]
    return {
        "report_sha256": sha256("\n".join(stable)),
        "learned_routes": result.learned_routes,
        "learned_routes_per_host": {host: len(routes) for host, routes in learned.items()},
        "learned_windows_sha256": sha256(json.dumps(learned, sort_keys=True)),
        "fluid_steps": result.fluid_steps,
        "flows_sha256": sha256(flows_to_jsonl(obs.flows)),
        "trace_sha256": sha256(trace_to_json(obs.trace)),
    }


def build_chaos_reports() -> dict[str, Any]:
    """The chaos verbs under ``--fast``: study, alert and forensic reports.

    ``repro alerts`` and ``repro report`` print these two JSON documents
    from a capture each; one capture serves both here.
    """
    with contextlib.redirect_stderr(io.StringIO()):
        _, obs, _ = _run_captured("chaos_lossy_agent", fast=True)
    return {
        "chaos_partition_study_sha256": sha256(
            _cli_stdout(["run", "chaos_partition", "--fast"])
        ),
        "chaos_flaky_tools_study_sha256": sha256(
            _cli_stdout(["run", "chaos_flaky_tools", "--fast"])
        ),
        "chaos_lossy_agent_alerts_sha256": sha256(
            alert_report_to_json(build_alert_report(obs.alerts, experiment="chaos_lossy_agent"))
        ),
        "chaos_lossy_agent_report_sha256": sha256(
            report_to_json(build_report(obs, experiment="chaos_lossy_agent")) + "\n"
        ),
    }


SECTIONS = {
    "tournament_fast": build_tournament,
    "hybrid_differential": build_hybrid_differential,
    "hybrid_scale_fast": build_hybrid_scale,
    "chaos_reports_fast": build_chaos_reports,
}


def test_tournament_matches_golden():
    built = build_tournament()
    assert len(built["cells"]) == 2 * 5
    assert_matches(GOLDEN_PATH, "tournament_fast", built)


def test_hybrid_differential_matches_golden():
    assert_matches(GOLDEN_PATH, "hybrid_differential", build_hybrid_differential())


def test_hybrid_scale_matches_golden():
    built = build_hybrid_scale()
    assert sum(built["learned_routes_per_host"].values()) == built["learned_routes"]
    assert_matches(GOLDEN_PATH, "hybrid_scale_fast", built)


def neumaier_sum(iterable: Any, /, start: Any = 0) -> Any:
    """``sum`` as CPython 3.12 computes it, step for step (``bltinmodule.c``).

    Exact ints add as ints; from the first float partial on, every float
    item goes through Neumaier's compensated step, an int item is added
    plainly, anything else ends the compensated run for good; the
    compensation is folded in once, at the end, when it is finite.
    """
    items = iter(iterable)
    total = start
    if type(total) is not float:
        for item in items:
            total = total + item
            if type(total) is float:
                break
        else:
            return total
    compensation = 0.0
    for item in items:
        if type(item) is float:
            partial = total + item
            if abs(total) >= abs(item):
                compensation += (total - partial) + item
            else:
                compensation += (item - partial) + total
            total = partial
        elif isinstance(item, int):
            total += float(item)
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            total = total + item
            for rest in items:
                total = total + rest
            return total
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_hybrid_scale_matches_golden_under_compensated_sum(monkeypatch):
    """The fixture holds on either side of 3.12's change to ``sum``.

    The goldens were recorded on 3.11, whose ``sum`` over floats is a
    plain left-to-right loop; from 3.12 it is Neumaier-compensated, and
    CI runs 3.10 and 3.12.  Two bare float sums sit on this cell's
    behaviour path (the per-link offered load in ``cdn/fluidtraffic.py``,
    the cohort window total in ``sim/fluid.py``).  With ``builtins.sum``
    swapped for the 3.12 algorithm the cell must still match: if a
    future change makes some reduction here ill-conditioned enough to
    show the difference, this fails on every interpreter instead of on
    one CI leg.
    """
    calls = {"float": 0}

    def counting_sum(iterable, /, start=0):
        result = neumaier_sum(iterable, start)
        calls["float"] += type(result) is float
        return result

    cancelling = [1e16, 1.0, -1e16]
    assert neumaier_sum(cancelling) == 1.0
    assert neumaier_sum([1, 2, 3]) == 6 and type(neumaier_sum([1, 2, 3])) is int
    assert neumaier_sum([0.1] * 10) == neumaier_sum([0.1] * 9, 0.1) == 1.0
    assert neumaier_sum([[1], [2]], []) == [1, 2]
    if sys.version_info >= (3, 12):
        assert sum(cancelling) == 1.0
    else:
        assert sum(cancelling) == 0.0
    monkeypatch.setattr(builtins, "sum", counting_sum)
    built = build_hybrid_scale()
    monkeypatch.undo()
    assert calls["float"] > 1_000
    assert_matches(GOLDEN_PATH, "hybrid_scale_fast", built)


def test_chaos_reports_match_golden():
    assert_matches(GOLDEN_PATH, "chaos_reports_fast", build_chaos_reports())


def test_fixture_file_is_canonical():
    assert_canonical(GOLDEN_PATH, SECTIONS)


if __name__ == "__main__":
    refresh(GOLDEN_PATH, SECTIONS)
