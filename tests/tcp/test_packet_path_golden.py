"""Golden fixture for the per-packet path (link, fabric, host demux, TCP).

``tests/data/packet_path_golden.json`` records what the simulated stack
*does* — completion times, retransmission counters, final windows, link
counters, and digests of two small end-to-end studies — so that a change
to how fast the path runs can be shown to leave its behaviour alone.  The
cells deliberately reach where no benchmark workload goes: tail drops on
short queues, Bernoulli and Gilbert-Elliott loss, SACK and delayed ACKs
both on and off, idle restarts, and an RTO streak that runs into the
retry limit.

This module is both the test and the generator.  When behaviour is
*meant* to change, refresh the fixture and commit it with the change::

    PYTHONPATH=src python tests/tcp/test_packet_path_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any

from repro.analysis.export import flows_to_jsonl, trace_to_json
from repro.experiments.chaos import ChaosStudyConfig, chaos_study_arms
from repro.experiments.scenarios import ProbeStudyConfig, probe_study_arms, run_study_arm
from repro.net.link import LinkStats
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel
from repro.obs.instrument import capture
from repro.tcp.constants import TcpConfig
from repro.tcp.socket import TcpSocket
from repro.testing import TwoHostTestbed, request_response

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "packet_path_golden.json"

CELL_SEED = 20260928
RANDOM_CELLS = 40
BLACKHOLE_CELLS = 4
EXCHANGES_PER_CELL = 3


def _loss_model(spec: dict[str, Any] | None) -> LossModel | None:
    if spec is None:
        return None
    if spec["kind"] == "bernoulli":
        return BernoulliLoss(spec["p"])
    return GilbertElliottLoss(
        spec["p_gb"], spec["p_bg"], loss_good=spec["loss_good"], loss_bad=spec["loss_bad"]
    )


def _random_cell(rng: random.Random, index: int) -> dict[str, Any]:
    """Draw one cell's parameters (plain JSON values, recorded verbatim)."""
    loss_kind = rng.choice(["none", "bernoulli", "gilbert"])
    loss: dict[str, Any] | None = None
    if loss_kind == "bernoulli":
        loss = {"kind": "bernoulli", "p": round(rng.uniform(0.002, 0.06), 4)}
    elif loss_kind == "gilbert":
        loss = {
            "kind": "gilbert",
            "p_gb": round(rng.uniform(0.005, 0.03), 4),
            "p_bg": round(rng.uniform(0.2, 0.5), 3),
            "loss_good": round(rng.uniform(0.0, 0.002), 4),
            "loss_bad": round(rng.uniform(0.15, 0.4), 3),
        }
    return {
        "seed": 1000 + index,
        "rtt": round(rng.uniform(0.004, 0.25), 5),
        "bandwidth_bps": rng.choice([2e6, 10e6, 50e6, 1e9]),
        "queue_limit_packets": rng.choice([6, 12, 24, 64, 1024]),
        "route_initcwnd": rng.choice([None, 4, 10, 46, 100, 250]),
        "response_bytes": int(2_000 * 10 ** rng.uniform(0.0, 2.7)),
        "loss": loss,
        "sack": rng.random() < 0.5,
        "delayed_ack": rng.random() < 0.5,
        "slow_start_after_idle": rng.random() < 0.5,
        "idle_gap": rng.choice([0.0, 0.05, 3.0]),
    }


def _socket_counters(sock: TcpSocket) -> dict[str, Any]:
    return {
        "segments_sent": sock.segments_sent,
        "segments_retransmitted": sock.segments_retransmitted,
        "rtos_fired": sock.rtos_fired,
        "fast_retransmits": sock.fast_retransmits,
        "cwnd": sock.cc.cwnd_segments,
        "state": sock.state.value,
    }


def _link_counters(stats: LinkStats) -> dict[str, int]:
    return {
        "offered": stats.packets_offered,
        "delivered": stats.packets_delivered,
        "dropped_queue": stats.packets_dropped_queue,
        "dropped_loss": stats.packets_dropped_loss,
        "dropped_down": stats.packets_dropped_down,
        "bytes_delivered": stats.bytes_delivered,
        "max_queue_depth": stats.max_queue_depth,
    }


def _testbed(params: dict[str, Any], accepted: list[TcpSocket]) -> TwoHostTestbed:
    config = TcpConfig(
        default_initrwnd=300,
        sack=params["sack"],
        delayed_ack=params["delayed_ack"],
        slow_start_after_idle=params["slow_start_after_idle"],
    )
    bed = TwoHostTestbed(
        rtt=params["rtt"],
        bandwidth_bps=params["bandwidth_bps"],
        loss_model=_loss_model(params["loss"]),
        client_config=config,
        server_config=config,
        seed=params["seed"],
    )
    # The testbed's trunk has the fabric's default queue; a cell sets its own.
    for link in (bed.trunk.forward, bed.trunk.reverse):
        link.queue_limit_packets = params["queue_limit_packets"]

    def on_message(sock: TcpSocket, payload: Any, size: int) -> None:
        sock.send_message(("data", payload[1]), payload[1])

    def on_accept(sock: TcpSocket) -> None:
        accepted.append(sock)
        sock.on_message = on_message

    bed.server.listen(80, on_accept=on_accept)
    if params["route_initcwnd"] is not None:
        bed.server.ip.route_replace(
            TwoHostTestbed.CLIENT_ZONE, initcwnd=params["route_initcwnd"]
        )
    return bed


def run_cell(params: dict[str, Any]) -> dict[str, Any]:
    """Back-to-back exchanges on one testbed; every float as ``repr``."""
    accepted: list[TcpSocket] = []
    bed = _testbed(params, accepted)
    exchanges = []
    for _ in range(EXCHANGES_PER_CELL):
        exchange = request_response(bed, params["response_bytes"], deadline=120.0)
        exchanges.append(
            {
                "established_at": repr(exchange.established_at),
                "completed_at": repr(exchange.completed_at),
                "client": _socket_counters(exchange.socket),
            }
        )
        if params["idle_gap"]:
            bed.sim.run(until=bed.sim.now + params["idle_gap"])
    return {
        "params": params,
        "exchanges": exchanges,
        "server": [_socket_counters(sock) for sock in accepted],
        "forward": _link_counters(bed.trunk.forward.stats),
        "reverse": _link_counters(bed.trunk.reverse.stats),
    }


def run_blackhole_cell(params: dict[str, Any]) -> dict[str, Any]:
    """The trunk dies mid-response: who gives up, why, and exactly when."""
    accepted: list[TcpSocket] = []
    bed = _testbed(params, accepted)
    errors: list[list[str]] = []

    def on_error_at(end: str) -> Any:
        def on_error(sock: TcpSocket, reason: str) -> None:
            errors.append([end, reason, repr(bed.sim.now)])

        return on_error

    def on_established(sock: TcpSocket) -> None:
        sock.send_message(("get", params["response_bytes"]), 200)

    client = bed.client.connect(
        bed.server.address,
        80,
        on_established=on_established,
        on_error=on_error_at("client"),
    )
    bed.sim.run(until=params["down_at"])
    for sock in accepted:
        sock.on_error = on_error_at("server")
    bed.trunk.set_down()
    bed.sim.run(until=4000.0)
    return {
        "params": params,
        "errors": errors,
        "client": _socket_counters(client),
        "server": [_socket_counters(sock) for sock in accepted],
        "forward": _link_counters(bed.trunk.forward.stats),
        "reverse": _link_counters(bed.trunk.reverse.stats),
        "pending_events": bed.sim.pending_events,
    }


def build_cells() -> dict[str, Any]:
    rng = random.Random(CELL_SEED)
    cells = [run_cell(_random_cell(rng, index)) for index in range(RANDOM_CELLS)]
    blackholes = []
    for index in range(BLACKHOLE_CELLS):
        params = _random_cell(rng, RANDOM_CELLS + index)
        params["loss"] = None
        params["response_bytes"] = 3_000_000
        params["bandwidth_bps"] = 10e6
        # After the handshake (one RTT) and well inside the ~2.4 s the
        # response needs at 10 Mbit/s, so both ends have data in flight.
        params["down_at"] = round(2 * params["rtt"] + rng.uniform(0.1, 0.9), 4)
        blackholes.append(run_blackhole_cell(params))
    return {"cells": cells, "blackholes": blackholes}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _study_digest(arms: list[Any], obs: Any) -> dict[str, Any]:
    routes = sorted(
        [arm.cluster.config.label, agent.host.name, str(entry.destination), entry.window]
        for arm in arms
        for agent in arm.cluster.all_agents()
        for entry in agent.learned_table().entries()
    )
    return {
        "flows_sha256": _sha256(flows_to_jsonl(obs.flows)),
        "trace_sha256": _sha256(trace_to_json(obs.trace)),
        "learned_routes_sha256": _sha256(json.dumps(routes)),
        "learned_routes": len(routes),
        "flows": len(obs.flows.records()),
    }


def build_probe_study() -> dict[str, Any]:
    """``repro run fig12_14 --fast``'s paired study, both arms live."""
    config = ProbeStudyConfig(
        topology_codes=("LHR", "AMS", "JFK", "NRT", "SYD"), warmup=10.0, duration=30.0
    )
    with capture() as obs:
        arms = [run_study_arm(arm) for arm in probe_study_arms(config)]
    return _study_digest(arms, obs)


def build_chaos_study() -> dict[str, Any]:
    """``repro run chaos_lossy_agent --fast``'s paired study."""
    config = ChaosStudyConfig(scenario="chaos_lossy_agent", warmup=8.0, duration=30.0)
    with capture() as obs:
        arms = [run_study_arm(arm) for arm in chaos_study_arms(config)]
    return _study_digest(arms, obs)


SECTIONS = {
    "testbed": build_cells,
    "probe_study_fast": build_probe_study,
    "chaos_lossy_agent_fast": build_chaos_study,
}


def render(section: Any) -> str:
    return json.dumps(section, indent=1, sort_keys=True)


def _golden() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def test_testbed_cells_match_golden():
    built = build_cells()
    golden = _golden()["testbed"]
    for kind in ("cells", "blackholes"):
        for index, (mine, theirs) in enumerate(zip(built[kind], golden[kind], strict=True)):
            assert mine == theirs, f"{kind}[{index}] diverged: {mine['params']}"


def test_cells_cover_the_paths_no_benchmark_reaches():
    cells = _golden()["testbed"]["cells"]
    assert len(cells) >= 32
    for flag in ("sack", "delayed_ack"):
        assert {cell["params"][flag] for cell in cells} == {True, False}
    kinds = {(cell["params"]["loss"] or {"kind": "none"})["kind"] for cell in cells}
    assert kinds == {"none", "bernoulli", "gilbert"}
    assert any(cell["forward"]["dropped_queue"] + cell["reverse"]["dropped_queue"]
               for cell in cells)
    assert any(counters["rtos_fired"] for cell in cells for counters in cell["server"])
    assert any(counters["fast_retransmits"] for cell in cells for counters in cell["server"])
    for cell in _golden()["testbed"]["blackholes"]:
        assert ["transfer timeout"] == sorted({reason for _, reason, _ in cell["errors"]})
        assert cell["pending_events"] == 0


def test_probe_study_matches_golden():
    assert build_probe_study() == _golden()["probe_study_fast"]


def test_chaos_study_matches_golden():
    assert build_chaos_study() == _golden()["chaos_lossy_agent_fast"]


def test_fixture_file_is_canonical():
    """The committed bytes are exactly what the generator would write."""
    assert set(_golden()) == set(SECTIONS)
    assert GOLDEN_PATH.read_text() == render(_golden()) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(render({name: build() for name, build in SECTIONS.items()}) + "\n")
    print(f"wrote {GOLDEN_PATH}")
