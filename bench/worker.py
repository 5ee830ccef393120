"""One repeat of one workload, in a process of its own.

``run.py`` starts this file once per repeat, so that peak RSS is per
workload, no state leaks from one repeat to the next, and imports and
cold start are paid (and measured) every time, as they are on every
``repro run``.  The last line of standard output is one JSON record.

Time is split at the first ``Simulator.run`` entry:

* ``setup_raw_s`` — from just before the parent spawned this process to
  the moment the first simulated event is eligible: interpreter start,
  imports, topology/cluster/testbed construction, workload registration.
* ``wall_raw_s`` — everything after that which the user waits for:
  simulate, summarise, render and export, until the workload returns.

``setup_s`` and ``wall_s`` are the same two stretches corrected for the
speed the host ran at meanwhile (``hostspeed.py``).  Digest, output checks
and public-surface counts are produced after the timed region closed.

With ``--reference`` the process runs the workload's fidelity reference
instead (``fluid_hybrid``: the packet-vs-fluid differential), untimed, and
prints its ``fidelity_gap`` alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from hostspeed import SpeedSampler  # noqa: E402
from stats import nearest_rank, tail_supported  # noqa: E402
from tracer import Tracer  # noqa: E402

if TYPE_CHECKING:
    from workloads import Outcome

#: The tail percentile reported for simulated completion times.
TAIL = 0.90


def public_counts(outcome: Outcome) -> dict[str, float]:
    """Counts read from the program's public read-only surfaces after the run."""
    obs = outcome.obs
    metrics = obs.metrics
    value = metrics.counter_value
    stores = (obs.trace, obs.flows, obs.spans, obs.timeline, obs.tsdb, obs.alerts)
    written = (
        obs.trace.recorded
        + obs.flows.next_id
        + obs.spans.next_id
        + obs.timeline.recorded
        + obs.tsdb.recorded
        + obs.alerts.next_id
    )
    payload = outcome.payload_bytes
    if payload is None:
        payload = sum(flow.bytes_received for flow in obs.flows.records())
    link_depth = outcome.link_queue_depth_max
    if link_depth is None:
        link_depth = int(metrics.gauge("link_queue_depth").max_value)
    return {
        "events_fired": outcome.events_fired,
        "payload_bytes": payload,
        "packets_delivered": value("link_packets_delivered"),
        "packets_dropped": value("link_packets_dropped_queue")
        + value("link_packets_dropped_loss")
        + value("link_packets_dropped_down"),
        "link_queue_depth_max": link_depth,
        "connections_opened": value("tcp_connections_opened"),
        "segments_retransmitted": value("tcp_segments_retransmitted"),
        "rtos_fired": value("tcp_rtos_fired"),
        "fast_retransmits": value("tcp_fast_retransmits"),
        "agent_ticks": value("riptide_polls"),
        "rows_observed": value("riptide_connections_observed"),
        "routes_installed": value("riptide_routes_installed"),
        "routes_expired": value("riptide_routes_expired"),
        "routes_withdrawn": value("riptide_routes_withdrawn"),
        "guard_trips": value("riptide_guard_trips"),
        "poll_failures": value("riptide_poll_failures"),
        "policy_decisions": metrics.total("riptide_policy_decisions"),
        "transfers_completed": value("transfer_completions"),
        "transfers_failed": value("transfer_failures"),
        "connections_pool_opened": value("transfer_connections_opened"),
        "connections_pool_reused": value("transfer_connections_reused"),
        "probes_issued": value("probe_transfers_issued"),
        "probes_failed": value("probe_failures"),
        "slo_evaluations": value("slo_evaluations"),
        "fault_injections": metrics.total("fault_injections"),
        "records_written": written,
        "records_dropped": sum(store.dropped for store in stores),
    }


def run_repeat(
    name: str, seed: int, spawned_at: float, traced: bool, instrumented: bool = False
) -> dict[str, Any]:
    """Run one repeat in this process and return its record.

    ``instrumented`` runs ``bulk_transfer`` with instrumentation on.
    """
    options = {"instrumented": True} if instrumented else {}
    clock = time.monotonic
    sampler = SpeedSampler(clock)
    sampler.start()
    try:
        # Imported under the sampler: importing the program is most of set-up.
        from workloads import WORKLOADS, Check

        function, _ = WORKLOADS[name]
        with Tracer(clock=clock).install(full=traced) as tracer:
            outcome = function(seed, tracer, **options)
            finished_at = clock()
    finally:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer.first_run_at is None:
        raise RuntimeError(f"{name}: the workload never entered Simulator.run")

    checks = list(outcome.checks)
    samples = outcome.latencies_ms
    checks.append(
        Check(
            "p90 backed by enough samples",
            tail_supported(len(samples), TAIL),
            f"{len(samples)} new-connection completions",
        )
    )
    counts = public_counts(outcome)
    # Probes are fetches, so a failed probe is counted once, as a failed
    # transfer.  Transfers still in flight at shutdown are not attempts.
    finished = counts["transfers_completed"] + counts["transfers_failed"]
    attempted = int(finished + outcome.exchanges + len(checks))
    failed = int(
        counts["transfers_failed"]
        + outcome.exchanges_incomplete
        + sum(1 for check in checks if not check.ok)
    )
    digest = hashlib.sha256()
    for text in outcome.artifacts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")

    wall_s = sampler.calibrated(tracer.first_run_at, finished_at)
    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "setup_s": sampler.calibrated(spawned_at, tracer.first_run_at),
        "wall_s": wall_s,
        "wall_ms_per_mb": wall_s * 1e3 / (counts["payload_bytes"] / 1e6),
        "setup_raw_s": tracer.first_run_at - spawned_at,
        "wall_raw_s": finished_at - tracer.first_run_at,
        "simulate_s": tracer.inclusive("sim", "Simulator.run"),
        "summarise_s": tracer.inclusive("experiments", "summarise"),
        "report_s": tracer.inclusive("obs", "report"),
        "export_s": tracer.inclusive("analysis", "export"),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "fidelity_gap": outcome.fidelity_gap,
        "latency_samples": len(samples),
        "sim_new_conn_p50_ms": nearest_rank(samples, 0.5) if samples else None,
        "sim_new_conn_p90_ms": nearest_rank(samples, TAIL) if samples else None,
        "artifact_sha256": digest.hexdigest(),
        "export_bytes": outcome.export_bytes,
        "counts": counts,
        "checks": [vars(check) for check in checks],
    }
    if traced:
        record["trace"] = tracer.summary()
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"{name}-seed{seed}.trace.json"
        trace_path.write_text(tracer.chrome_trace(), encoding="utf-8")
        record["chrome_trace"] = str(trace_path.relative_to(BENCH_DIR.parent))
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="the parent's time.monotonic() just before it started this process",
    )
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--instrumented", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    if args.reference:
        from workloads import REFERENCES

        gap = REFERENCES[args.workload](args.seed)
        record: dict[str, Any] = {
            "workload": args.workload, "seed": args.seed, "fidelity_gap": gap,
        }
    else:
        record = run_repeat(
            args.workload, args.seed, args.spawned_at, args.trace, args.instrumented
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
