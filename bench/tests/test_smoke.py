"""The one command, end to end: smoke run, driver contract, missing program."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run

REPO_ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, "bench/run.py"]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(args: list[str], cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    # The driver sets no PYTHONPATH: the benchmark finds the program itself.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [*RUN, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=600, check=False,
    )


def test_smoke_prints_every_workload_and_metric_and_leaves_history_alone():
    history = REPO_ROOT / "bench" / "history.jsonl"
    before = history.read_bytes() if history.exists() else None
    done = _run(["--smoke", "--seed", "5"])
    assert done.returncode == 0, done.stdout + done.stderr
    after = history.read_bytes() if history.exists() else None
    assert after == before
    header = json.loads(done.stdout.splitlines()[0])
    assert header["seed"] == 5
    assert {"git_sha", "nproc", "platform", "python"} <= set(header)
    words = set(done.stdout.split())
    for name in run.WORKLOAD_NAMES:
        assert name in words
        assert (REPO_ROOT / "bench" / "out" / f"{name}-seed5.trace.json").is_file()
    named = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
        + [metric for metric, _ in run.HOST_TIME]
    )
    missing = [name for name in named if name not in words]
    assert not missing
    assert "FAILED" not in done.stdout
    assert done.stdout.count(" R=1 ") == len(run.WORKLOAD_NAMES)
    # Every workload has a fidelity gap, fluid_hybrid's from its reference
    # child; obs.capture_tax is measured on bulk_transfer only.
    lines = [line.split() for line in done.stdout.splitlines()]
    gaps = [line[1] for line in lines if line[:1] == ["fidelity_gap"]]
    assert len(gaps) == len(run.WORKLOAD_NAMES) and "n/a" not in gaps
    taxes = [line[1] for line in lines if line[:1] == ["obs.capture_tax"]]
    assert sorted(tax == "n/a" for tax in taxes) == [False, True, True, True]


def _result_line(stdout: str) -> dict:
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def test_contract_run_prints_the_end_to_end_metrics():
    done = _run(["--workload", "bulk_transfer", "--seed", "3", "--seconds", "1", "--trace", "0"])
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = _result_line(done.stdout)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for entry in SPEC["end_to_end"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
        assert metrics[entry["name"]]["value"] > 0
    assert f" R={run.MIN_REPEATS} " in done.stdout


def test_contract_traced_run_prints_the_per_layer_metrics():
    done = _run(["--workload", "bulk_transfer", "--seed", "3", "--seconds", "1", "--trace", "1"])
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = _result_line(done.stdout)["metrics"]
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    for name, unit, _ in layers.PER_LAYER:
        assert metrics[name]["unit"] == unit
        assert isinstance(metrics[name]["value"], (int, float))
    # bulk_transfer is loss-free by construction and bypasses the agent.
    assert metrics["net.delivery_ratio"]["value"] == 1.0
    assert metrics["tcp.rtos_fired"]["value"] == 0
    assert metrics["core.agent_ticks"]["value"] == 0
    assert metrics["fidelity_gap"]["value"] == 0
    assert metrics["trace.overhead_ratio"]["value"] <= run.MAX_TRACE_OVERHEAD
    assert metrics["obs.capture_tax"]["value"] != 0


def test_the_fidelity_reference_runs_outside_the_timed_repeat(monkeypatch):
    import workloads
    from tracer import Tracer

    def differential(config):
        raise AssertionError("the differential ran inside the timed workload")

    monkeypatch.setattr(workloads.hybrid, "run_differential", differential)
    with Tracer().install(full=False) as tracer:
        outcome = workloads.fluid_hybrid(5, tracer)
    assert outcome.fidelity_gap is None
    assert tracer.first_run_at is not None

    class Differential:
        def first_window_fraction_delta(self) -> float:
            return 0.125

    monkeypatch.setattr(workloads.hybrid, "run_differential", lambda config: Differential())
    assert workloads.REFERENCES["fluid_hybrid"](5) == 0.125


def test_contract_arguments_are_checked():
    done = _run(["--trace", "0"])
    assert done.returncode == 2
    assert "--trace needs --workload and --seconds" in done.stderr


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        REPO_ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = _run(
        ["--workload", "probe_study", "--seed", "1", "--seconds", "25", "--trace", "0"],
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
