"""Per-layer metrics: their names, units and how each is derived.

Layers are the program's packages.  Counts come from the program's
public read-only surfaces (``counts`` in a worker record) and from the
tracer's call counts; every ``*_s`` and ``us_per_*`` value comes from
the traced repeat and is rescaled, like the end-to-end timings, to the
reference host speed (by the one factor measured over that repeat).
``X.self_s`` is the self time of layer X's spans closed inside
``Simulator.run``, so the layer self times, ``sim.self_s``,
``sim.dispatch_self_s`` and ``trace.unattributed_s`` add up to the traced
simulate-phase wall.
"""

from __future__ import annotations

from typing import Any

#: Layers that get a ``self_s`` metric of their own.
NAMED_LAYERS = ("sim", "net", "tcp", "linux", "core", "policy", "cdn", "obs", "faults")

#: (name, unit, better).  The order is the order of the printed table.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("sim.events_fired", "count", "lower"),
    ("sim.events_scheduled", "count", "lower"),
    ("sim.events_cancelled", "count", "lower"),
    ("sim.cancel_ratio", "ratio", "lower"),
    ("sim.events_per_packet", "ratio", "lower"),
    ("sim.queue_depth_max", "count", "lower"),
    ("sim.dispatch_self_s", "s", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.fluid_steps", "count", "lower"),
    ("sim.fluid_step_s", "s", "lower"),
    ("net.packets_offered", "count", "lower"),
    ("net.packets_delivered", "count", "higher"),
    ("net.packets_dropped", "count", "lower"),
    ("net.delivery_ratio", "ratio", "higher"),
    ("net.queue_depth_max", "count", "lower"),
    ("net.self_s", "s", "lower"),
    ("net.us_per_packet", "us", "lower"),
    ("tcp.connections_opened", "count", "lower"),
    ("tcp.segments_handled", "count", "lower"),
    ("tcp.segments_retransmitted", "count", "lower"),
    ("tcp.retransmit_ratio", "ratio", "lower"),
    ("tcp.rtos_fired", "count", "lower"),
    ("tcp.fast_retransmits", "count", "lower"),
    ("tcp.self_s", "s", "lower"),
    ("tcp.us_per_segment", "us", "lower"),
    ("linux.ss_calls", "count", "lower"),
    ("linux.ss_rows", "count", "lower"),
    ("linux.ss_s", "s", "lower"),
    ("linux.route_lookups", "count", "lower"),
    ("linux.route_lookup_s", "s", "lower"),
    ("linux.route_cmds", "count", "lower"),
    ("linux.self_s", "s", "lower"),
    ("core.agent_ticks", "count", "lower"),
    ("core.rows_observed", "count", "lower"),
    ("core.routes_installed", "count", "lower"),
    ("core.routes_expired", "count", "lower"),
    ("core.routes_withdrawn", "count", "lower"),
    ("core.guard_trips", "count", "lower"),
    ("core.poll_failures", "count", "lower"),
    ("core.install_ratio", "ratio", "lower"),
    ("core.tick_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("policy.decisions", "count", "lower"),
    ("policy.self_s", "s", "lower"),
    ("cdn.transfers_issued", "count", "higher"),
    ("cdn.transfers_failed", "count", "lower"),
    ("cdn.conn_reuse_ratio", "ratio", "higher"),
    ("cdn.probes_issued", "count", "higher"),
    ("cdn.probes_failed", "count", "lower"),
    ("cdn.fluid_rows", "count", "lower"),
    ("cdn.fluid_step_s", "s", "lower"),
    ("cdn.self_s", "s", "lower"),
    ("cdn.build_s", "s", "lower"),
    ("obs.records_written", "count", "lower"),
    ("obs.records_dropped", "count", "lower"),
    ("obs.self_s", "s", "lower"),
    ("obs.slo_evaluations", "count", "lower"),
    ("obs.slo_s", "s", "lower"),
    ("obs.report_s", "s", "lower"),
    ("obs.capture_tax", "ratio", "lower"),
    ("faults.injections", "count", "higher"),
    ("faults.self_s", "s", "lower"),
    ("experiments.summarise_s", "s", "lower"),
    ("analysis.export_s", "s", "lower"),
    ("analysis.export_bytes", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    # Simulated (exact) results.  They repeat bit-for-bit for a fixed
    # seed but move with the seed and can be 0, so the driver's contract
    # cannot carry them as bounded end-to-end metrics; they ride here.
    ("fail_ratio", "ratio", "lower"),
    ("fidelity_gap", "gap", "lower"),
    ("sim_new_conn_p50_ms", "ms", "lower"),
    ("sim_new_conn_p90_ms", "ms", "lower"),
)


#: Spans each workload must have opened at least once.  The names behind
#: ``core.tick_s`` and ``cdn.fluid_step_s`` are the qualified names of
#: periodic callbacks, found at run time; a rename in the program would turn
#: those metrics, and the call counts below, into silent zeros.
EXPECTED_SPANS: dict[str, tuple[str, ...]] = {
    "probe_study": (
        "net|Link.transmit",
        "tcp|TcpSocket.handle_segment",
        "linux|Host.send_packet",
        "linux|RouteTable.lookup",
        "linux|SsTool.tcp_info",
        "linux|IpRouteTool.route_replace",
        "core|RiptideAgent._tick",
        "cdn|TransferClient.fetch",
        "cdn|CdnCluster.__init__",
    ),
    "bulk_transfer": (
        "net|Link.transmit",
        "tcp|TcpSocket.handle_segment",
        "linux|Host.send_packet",
        "linux|RouteTable.lookup",
    ),
    "fluid_hybrid": (
        "sim|FluidPopulation.step",
        "linux|RouteTable.lookup",
        "linux|SsTool.tcp_info",
        "core|RiptideAgent._tick",
        "cdn|FluidTraffic._step",
        "cdn|FluidTraffic.socket_stats_for",
        "cdn|CdnCluster.__init__",
    ),
    "chaos_forensics": (
        "net|Link.transmit",
        "tcp|TcpSocket.handle_segment",
        "linux|SsTool.tcp_info",
        "core|RiptideAgent._tick",
        "core|SafetyGuard.observe",
        "cdn|TransferClient.fetch",
        "obs|SloEngine.evaluate",
        "obs|TraceLog.record",
    ),
}


def missing_spans(workload: str, traced: dict[str, Any]) -> list[str]:
    """The ``EXPECTED_SPANS`` of ``workload`` that its traced repeat never opened."""
    functions = traced["trace"]["functions"]
    return [
        key
        for key in EXPECTED_SPANS[workload]
        if key not in functions or not functions[key][0]
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(
    traced: dict[str, Any],
    overhead_ratio: float,
    capture_tax: float | None,
) -> dict[str, float | None]:
    """Every per-layer metric of one workload, from its traced repeat's record.

    ``overhead_ratio`` (traced wall over the untraced median) and
    ``capture_tax`` (measured on ``bulk_transfer`` only, None elsewhere)
    need runs the traced repeat cannot see, so the caller supplies them.
    """
    counts = traced["counts"]
    trace = traced["trace"]
    functions = trace["functions"]
    # Seconds at the reference host speed per second the tracer's clock read.
    scale = (traced["setup_s"] + traced["wall_s"]) / (
        traced["setup_raw_s"] + traced["wall_raw_s"]
    )
    layer_self = {
        layer: seconds * scale for layer, seconds in trace["layer_self_in_run"].items()
    }

    def calls(key: str) -> float:
        return functions[key][0] if key in functions else 0

    def inclusive(key: str) -> float:
        return functions[key][1] * scale if key in functions else 0.0

    dispatch = functions["sim|Simulator.run"][2] * scale
    fired = counts["events_fired"]
    delivered = counts["packets_delivered"]
    offered = calls("net|Link.transmit")
    handled = calls("tcp|TcpSocket.handle_segment")
    pooled = counts["connections_pool_opened"] + counts["connections_pool_reused"]
    values: dict[str, float | None] = {
        "sim.events_fired": fired,
        "sim.events_scheduled": trace["scheduled"],
        "sim.events_cancelled": trace["cancelled"],
        "sim.cancel_ratio": _ratio(trace["cancelled"], trace["scheduled"]),
        "sim.events_per_packet": _ratio(fired, delivered),
        "sim.queue_depth_max": trace["queue_depth_max"],
        "sim.dispatch_self_s": dispatch,
        "sim.us_per_event": _ratio(dispatch, fired) * 1e6,
        "sim.self_s": layer_self.get("sim", 0.0) - dispatch,
        "sim.fluid_steps": calls("sim|FluidPopulation.step"),
        "sim.fluid_step_s": inclusive("sim|FluidPopulation.step"),
        "net.packets_offered": offered,
        "net.packets_delivered": delivered,
        "net.packets_dropped": counts["packets_dropped"],
        "net.delivery_ratio": _ratio(delivered, offered),
        "net.queue_depth_max": counts["link_queue_depth_max"],
        "net.us_per_packet": _ratio(layer_self.get("net", 0.0), delivered) * 1e6,
        "tcp.connections_opened": counts["connections_opened"],
        "tcp.segments_handled": handled,
        "tcp.segments_retransmitted": counts["segments_retransmitted"],
        "tcp.retransmit_ratio": _ratio(
            counts["segments_retransmitted"], calls("linux|Host.send_packet")
        ),
        "tcp.rtos_fired": counts["rtos_fired"],
        "tcp.fast_retransmits": counts["fast_retransmits"],
        "tcp.us_per_segment": _ratio(layer_self.get("tcp", 0.0), handled) * 1e6,
        "linux.ss_calls": calls("linux|SsTool.tcp_info"),
        "linux.ss_rows": trace["rows"].get("SsTool.tcp_info", 0),
        "linux.ss_s": inclusive("linux|SsTool.tcp_info"),
        "linux.route_lookups": calls("linux|RouteTable.lookup"),
        "linux.route_lookup_s": inclusive("linux|RouteTable.lookup"),
        "linux.route_cmds": calls("linux|IpRouteTool.route_add")
        + calls("linux|IpRouteTool.route_replace")
        + calls("linux|IpRouteTool.route_del"),
        "core.agent_ticks": counts["agent_ticks"],
        "core.rows_observed": counts["rows_observed"],
        "core.routes_installed": counts["routes_installed"],
        "core.routes_expired": counts["routes_expired"],
        "core.routes_withdrawn": counts["routes_withdrawn"],
        "core.guard_trips": counts["guard_trips"],
        "core.poll_failures": counts["poll_failures"],
        "core.install_ratio": _ratio(
            counts["routes_installed"], counts["policy_decisions"]
        ),
        "core.tick_s": inclusive("core|RiptideAgent._tick"),
        "policy.decisions": counts["policy_decisions"],
        "cdn.transfers_issued": calls("cdn|TransferClient.fetch"),
        "cdn.transfers_failed": counts["transfers_failed"],
        "cdn.conn_reuse_ratio": _ratio(counts["connections_pool_reused"], pooled),
        "cdn.probes_issued": counts["probes_issued"],
        "cdn.probes_failed": counts["probes_failed"],
        "cdn.fluid_rows": trace["rows"].get("FluidTraffic.socket_stats_for", 0),
        "cdn.fluid_step_s": inclusive("cdn|FluidTraffic._step"),
        "cdn.build_s": inclusive("cdn|CdnCluster.__init__"),
        "obs.records_written": counts["records_written"],
        "obs.records_dropped": counts["records_dropped"],
        "obs.slo_evaluations": counts["slo_evaluations"],
        "obs.slo_s": inclusive("obs|SloEngine.evaluate"),
        "obs.report_s": traced["report_s"] * scale,
        "obs.capture_tax": capture_tax,
        "faults.injections": counts["fault_injections"],
        "experiments.summarise_s": traced["summarise_s"] * scale,
        "analysis.export_s": traced["export_s"] * scale,
        "analysis.export_bytes": traced["export_bytes"],
        "trace.spans": trace["spans"],
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_s": sum(
            seconds for layer, seconds in layer_self.items() if layer not in NAMED_LAYERS
        ),
    }
    for layer in NAMED_LAYERS:
        values.setdefault(f"{layer}.self_s", layer_self.get(layer, 0.0))
    return values


def simulate_partition_error(traced: dict[str, Any]) -> float:
    """Relative gap between the summed layer self times and the simulate wall."""
    total = sum(traced["trace"]["layer_self_in_run"].values())
    simulate = traced["simulate_s"]
    return abs(total - simulate) / simulate if simulate else 0.0
