"""The tail-latency attribution report.

The paper's promise is a better *tail*: probes that used to crawl
through slow start finish fast once the route is learned.  When a probe
in the reproduction still lands above the p90, this module answers the
operator's next question — *why this one?* — by joining the probe's span
against the server-side flow record that carried its data, the
guard/route trace, and the fault-injection spans, and assigning exactly
one cause:

``guard_withdrawal``
    A safety-guard hold covering the probe's client prefix was in force
    on a destination-PoP host during the transfer: the learned window
    was deliberately withdrawn, so the probe ran at the kernel default.
``route_not_yet_learned``
    The probe opened a new connection whose server-side socket resolved
    its initial window from the sysctl default — Riptide had not (yet)
    installed a route for the client's prefix.
``loss_storm``
    An injected loss storm window overlapped the transfer on the
    probe's source or destination PoP.
``rto_stall``
    The carrying connection suffered retransmission timeouts or fast
    retransmits during the transfer window.
``genuinely_fast_path``
    None of the above: the probe is in the tail because its path is
    long (the >150ms bucket dominates every tail), not because
    anything went wrong.

Causes are assigned in that priority order, so every above-threshold
probe gets exactly one.  The report is a plain dict built in
deterministic order — ``report_to_json`` output is byte-identical
between a serial run and a merged parallel run of the same experiment.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.net.addresses import Prefix
from repro.net.errors import AddressError
from repro.obs.flow import FlowRecord
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import rounded_rank
from repro.obs.slo import AlertEpisode, source_matches_arm
from repro.obs.span import Span
from repro.obs.trace import EventType, TraceEvent

#: The attribution taxonomy, in assignment priority order.
ATTRIBUTION_CAUSES = (
    "guard_withdrawal",
    "route_not_yet_learned",
    "loss_storm",
    "rto_stall",
    "genuinely_fast_path",
)

#: Tail threshold: probes strictly above this percentile get a cause.
TAIL_PERCENTILE = 90.0


def _host_pop(host: str) -> str:
    """The PoP code of a (possibly arm-prefixed) ``CODE-index`` host name."""
    bare = host.rsplit(":", 1)[-1]
    return bare.rsplit("-", 1)[0]


def _overlaps(span: Span, begin: float, end: float) -> bool:
    return span.begin <= end and (span.end is None or span.end >= begin)


def build_report(
    instrumentation: Instrumentation,
    experiment: str = "",
    since: float | None = None,
    until: float | None = None,
) -> dict[str, Any]:
    """Join probe spans, flow records and traces into the attribution report.

    ``since``/``until`` restrict the attribution to probes whose span
    overlaps the closed sim-time window ``[since, until]`` — the probe
    counts, tail thresholds, cause counts and slow-probe list are all
    computed over the window's probes only.  Store-level counts (flows/trace/timeline/
    alerts) always describe the whole run.
    """
    spans = instrumentation.spans
    flows = instrumentation.flows
    trace = instrumentation.trace
    timeline = instrumentation.timeline
    alerts = instrumentation.alerts

    probe_spans = [
        span
        for span in spans.spans(category="probe")
        if _overlaps(
            span, -math.inf if since is None else since, math.inf if until is None else until
        )
    ]
    guard_spans = spans.spans(category="guard")
    fault_spans = spans.spans(category="fault")

    completed = [
        span
        for span in probe_spans
        if span.end is not None and span.detail("completed") is True
    ]
    failed = sum(
        1
        for span in probe_spans
        if span.end is not None and span.detail("completed") is not True
    )
    still_open = sum(1 for span in probe_spans if span.end is None)

    # Server-side flow index: (server addr, client addr, client port) is
    # the join key a probe span carries; arm membership disambiguates the
    # control and Riptide clusters of a paired study, which share the
    # same address plan and ephemeral-port sequences.
    flow_index: dict[tuple[str, str, object], list[FlowRecord]] = {}
    for record in flows.records(is_client=False):
        key = (record.local, record.remote, record.remote_port)
        flow_index.setdefault(key, []).append(record)

    # RTO / fast-retransmit evidence, keyed for both ends of a flow.
    loss_events = [
        event
        for event in trace.events()
        if event.type in (EventType.RTO_FIRED, EventType.FAST_RETRANSMIT)
    ]

    arms = sorted({str(span.detail("arm", "")) for span in completed})
    arm_stats: dict[str, dict[str, float]] = {}
    slow_by_arm: dict[str, list[Span]] = {}
    for arm in arms:
        durations = sorted(
            span.duration for span in completed if span.detail("arm", "") == arm
        )
        threshold = rounded_rank(durations, TAIL_PERCENTILE)
        slow = [
            span
            for span in completed
            if span.detail("arm", "") == arm and span.duration > threshold
        ]
        arm_stats[arm] = {
            "completed": len(durations),
            "p90_threshold": threshold,
            "slow": len(slow),
        }
        slow_by_arm[arm] = slow

    fired_episodes = alerts.episodes(fired_only=True)
    cause_counts = {cause: 0 for cause in ATTRIBUTION_CAUSES}
    slow_probes: list[dict[str, Any]] = []
    for arm in arms:
        for span in slow_by_arm[arm]:
            entry = _attribute(
                span,
                arm,
                flow_index,
                guard_spans,
                fault_spans,
                loss_events,
                fired_episodes,
            )
            cause_counts[entry["cause"]] += 1
            slow_probes.append(entry)

    closed_flows = sum(
        1 for record in flows.records() if record.closed_at is not None
    )
    by_source: dict[str, int] = {}
    for record in flows.records():
        by_source[record.cwnd_source] = by_source.get(record.cwnd_source, 0) + 1

    report: dict[str, Any] = {
        "experiment": experiment,
        "probes": {
            "total": len(probe_spans),
            "completed": len(completed),
            "failed": failed,
            "incomplete": still_open,
        },
        "arms": arm_stats,
        "causes": cause_counts,
        "slow_probes": slow_probes,
        "flows": {
            "recorded": flows.recorded,
            "retained": len(flows),
            "dropped": flows.dropped,
            "closed": closed_flows,
            "open": len(flows) - closed_flows,
            "by_cwnd_source": {key: by_source[key] for key in sorted(by_source)},
        },
        "trace": {
            "recorded": trace.recorded,
            "retained": len(trace),
            "dropped": trace.dropped,
        },
        "timeline": {
            "recorded": timeline.recorded,
            "retained": len(timeline),
            "dropped": timeline.dropped,
            "series": len(timeline.series_names()),
        },
        "alerts": {
            "recorded": alerts.recorded,
            "retained": len(alerts),
            "dropped": alerts.dropped,
            "fired": alerts.fired_count,
            "resolved": alerts.resolved_count,
        },
    }
    if since is not None or until is not None:
        report["window"] = {"since": since, "until": until}
    return report


def _attribute(
    span: Span,
    arm: str,
    flow_index: dict[tuple[str, str, object], list[FlowRecord]],
    guard_spans: list[Span],
    fault_spans: list[Span],
    loss_events: list[TraceEvent],
    fired_episodes: list[AlertEpisode],
) -> dict[str, Any]:
    begin, end = span.begin, span.end
    client = str(span.detail("client", ""))
    dest = str(span.detail("dest", ""))
    client_port = span.detail("client_port", 0)
    src_pop = str(span.detail("src_pop", ""))
    dst_pop = str(span.detail("dst_pop", ""))

    server_flow = None
    for record in flow_index.get((dest, client, client_port), []):
        if source_matches_arm(record.host, arm) and record.opened_at <= end:
            server_flow = record

    cause = "genuinely_fast_path"
    evidence: dict[str, Any] = {}

    guard = _covering_guard(guard_spans, arm, dst_pop, client, begin, end)
    if guard is not None:
        cause = "guard_withdrawal"
        evidence = {
            "guard_host": guard.source,
            "guard_destination": str(guard.detail("destination", "")),
            "guard_reason": str(guard.detail("reason", "")),
            "guard_begin": guard.begin,
        }
    elif (
        arm != "control"
        and span.detail("new_connection") is True
        and server_flow is not None
        and server_flow.cwnd_source == "default"
    ):
        cause = "route_not_yet_learned"
        evidence = {
            "server_host": server_flow.host,
            "server_initial_cwnd": server_flow.initial_cwnd,
        }
    else:
        storm = _covering_storm(fault_spans, src_pop, dst_pop, begin, end)
        if storm is not None:
            cause = "loss_storm"
            evidence = {"fault": storm.name, "fault_begin": storm.begin}
        else:
            rtos, rexmits = _loss_episodes(
                loss_events, span, server_flow, client_port, dest, begin, end
            )
            if rtos or rexmits:
                cause = "rto_stall"
                evidence = {"rtos": rtos, "fast_retransmits": rexmits}

    entry = {
        "span_id": span.span_id,
        "arm": arm,
        "src_pop": src_pop,
        "dst_pop": dst_pop,
        "size": span.detail("size", 0),
        "bucket": str(span.detail("bucket", "")),
        "begin": begin,
        "duration": span.duration,
        "new_connection": span.detail("new_connection") is True,
        "cwnd_source": str(span.detail("cwnd_source", "default")),
        "cause": cause,
        "evidence": evidence,
        # Cross-link: SLO alerts firing in this probe's arm while it ran.
        # An episode's firing interval is [firing_at, resolved_at] (open
        # to the end of the run when never resolved).
        "alerts_active": [
            {
                "alert_id": episode.alert_id,
                "slo": episode.slo,
                "severity": episode.severity,
                "source": episode.source,
            }
            for episode in fired_episodes
            if source_matches_arm(episode.source, arm)
            and episode.firing_at is not None
            and episode.firing_at <= end
            and (episode.resolved_at is None or episode.resolved_at >= begin)
        ],
    }
    if server_flow is not None:
        entry["server_flow_id"] = server_flow.flow_id
        entry["server_cwnd_source"] = server_flow.cwnd_source
    return entry


def _covering_guard(
    guard_spans: list[Span],
    arm: str,
    dst_pop: str,
    client: str,
    begin: float,
    end: float,
) -> Span | None:
    """A guard hold on a destination-PoP host covering the client's prefix."""
    for guard in guard_spans:
        if not _overlaps(guard, begin, end):
            continue
        if not source_matches_arm(guard.source, arm):
            continue
        if _host_pop(guard.source) != dst_pop:
            continue
        destination = guard.detail("destination")
        if destination is None:
            continue
        try:
            prefix = Prefix.parse(str(destination))
        except AddressError:
            continue
        if prefix.contains(client):
            return guard
    return None


def _covering_storm(
    fault_spans: list[Span],
    src_pop: str,
    dst_pop: str,
    begin: float,
    end: float,
) -> Span | None:
    for fault in fault_spans:
        if fault.detail("kind") != "loss_storm":
            continue
        if not _overlaps(fault, begin, end):
            continue
        pop = fault.detail("pop")
        if pop is None or pop in (src_pop, dst_pop):
            return fault
    return None


def _loss_episodes(
    loss_events: list[TraceEvent],
    span: Span,
    server_flow: FlowRecord | None,
    client_port: object,
    dest: str,
    begin: float,
    end: float,
) -> tuple[int, int]:
    """Count RTO / fast-retransmit episodes touching the probe's flow."""
    rtos = 0
    rexmits = 0
    for event in loss_events:
        if not begin <= event.time <= end:
            continue
        on_server = (
            server_flow is not None
            and event.source == server_flow.host
            and event.detail("remote") == server_flow.remote
            and event.detail("remote_port") == server_flow.remote_port
        )
        on_client = (
            event.source == span.source
            and event.detail("remote") == dest
            and event.detail("port") == client_port
        )
        if not (on_server or on_client):
            continue
        if event.type is EventType.RTO_FIRED:
            rtos += 1
        else:
            rexmits += 1
    return rtos, rexmits


def render_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`build_report` output."""
    lines: list[str] = []
    title = report.get("experiment") or "run"
    lines.append(f"Tail-latency attribution: {title}")
    window = report.get("window")
    if window is not None:
        since = window["since"]
        until = window["until"]
        lines.append(
            "window: "
            f"[{since if since is not None else 'start'}, "
            f"{until if until is not None else 'end'}]s sim time"
        )
    probes = report["probes"]
    lines.append(
        f"probes: {probes['total']} issued, {probes['completed']} completed, "
        f"{probes['failed']} failed, {probes['incomplete']} incomplete"
    )
    for arm, stats in report["arms"].items():
        label = arm or "(unlabelled)"
        lines.append(
            f"  arm {label}: {stats['completed']} completed, "
            f"p90={stats['p90_threshold'] * 1000:.0f}ms, "
            f"{stats['slow']} above"
        )
    lines.append("causes (probes above their arm's p90):")
    for cause in ATTRIBUTION_CAUSES:
        lines.append(f"  {cause:<24} {report['causes'][cause]}")
    slow = report["slow_probes"]
    if slow:
        lines.append("slowest attributed probes:")
        for entry in sorted(slow, key=lambda e: -e["duration"])[:10]:
            active = entry.get("alerts_active", ())
            alert_tag = (
                "  [alerts: "
                + ", ".join(
                    f"{a['slo']}/{a['severity']}" for a in active
                )
                + "]"
                if active
                else ""
            )
            lines.append(
                f"  [{entry['arm'] or '-'}] {entry['src_pop']}->{entry['dst_pop']} "
                f"{entry['size'] // 1000}KB {entry['duration'] * 1000:.0f}ms "
                f"({'new' if entry['new_connection'] else 'reused'}, "
                f"{entry['cwnd_source']}) -> {entry['cause']}{alert_tag}"
            )
    flows = report["flows"]
    lines.append(
        f"flows: {flows['recorded']} recorded ({flows['dropped']} dropped), "
        f"{flows['closed']} closed / {flows['open']} open; by cwnd source: "
        + ", ".join(f"{k}={v}" for k, v in flows["by_cwnd_source"].items())
    )
    trace = report["trace"]
    if trace["dropped"]:
        lines.append(
            f"WARNING: trace ring dropped {trace['dropped']} of "
            f"{trace['recorded']} events; attribution joins may be partial "
            f"(raise capture(trace_capacity=...))"
        )
    timeline = report["timeline"]
    lines.append(
        f"timeline: {timeline['retained']} points over "
        f"{timeline['series']} series"
    )
    alerts = report.get("alerts")
    if alerts is not None:
        lines.append(
            f"alerts: {alerts['recorded']} episodes "
            f"({alerts['fired']} fired, {alerts['resolved']} resolved, "
            f"{alerts['dropped']} dropped)"
        )
    return "\n".join(lines)


def report_to_json(report: dict[str, Any]) -> str:
    """The report as deterministic, indented JSON."""
    return json.dumps(report, indent=2)
