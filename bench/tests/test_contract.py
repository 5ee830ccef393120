"""``BENCHMARK.json`` against the driver's schema and against the code."""

import json
import re
from pathlib import Path

import layers
import run
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")

REPO_ROOT = Path(__file__).resolve().parents[2]

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_exactly_the_contract_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert (REPO_ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_command_and_paths_stay_inside_the_benchmark():
    assert SPEC["paths"] == ["bench"]
    assert all(PATH.fullmatch(p) and not p.startswith("/") for p in SPEC["paths"])
    command = SPEC["command"]
    assert command == ["python3", "bench/run.py"]
    assert len(command) <= 32 and all(len(part) <= 200 for part in command)
    assert not any(part.startswith("/") or ".." in part for part in command)
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["run_seconds"] == run.RUN_SECONDS


def test_workloads_match_the_code():
    listed = SPEC["workloads"]
    assert 2 <= len(listed) <= 8
    assert [w["name"] for w in listed] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert set(run.FIDELITY_UNITS) == set(run.WORKLOAD_NAMES)
    assert set(layers.EXPECTED_SPANS) == set(run.WORKLOAD_NAMES)
    assert run.REFERENCED == tuple(workloads.REFERENCES)
    for entry in listed:
        assert set(entry) == {"name", "why"}
        assert NAME.fullmatch(entry["name"])
        assert entry["why"] == workloads.WORKLOADS[entry["name"]][1]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_metrics_match_the_code():
    listed = SPEC["end_to_end"]
    assert 1 <= len(listed) <= 16
    assert [m["name"] for m in listed] == list(run.CONTRACT_END_TO_END)
    units = dict(run.HOST_TIME)
    for metric in listed:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])
        assert metric["unit"] == units[metric["name"]]
        assert metric["better"] == "lower"
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in listed if m["name"] == "setup_s")
    assert setup["unit"] == "s"
    assert setup["bound"] == max(m["bound"] for m in listed)


def test_per_layer_metrics_match_the_code():
    listed = SPEC["per_layer"]
    assert 1 <= len(listed) <= 128
    assert [(m["name"], m["unit"], m["better"]) for m in listed] == list(layers.PER_LAYER)
    for metric in listed:
        assert set(metric) == {"name", "unit", "better"}
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    # The simulated results ride in per_layer, under their own names.
    assert set(run.EXACT) <= {m["name"] for m in listed}


def test_every_name_is_used_once():
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))


def test_every_layer_with_a_self_time_is_a_package_of_the_program():
    for layer in layers.NAMED_LAYERS:
        assert (REPO_ROOT / "src" / "repro" / layer).is_dir()
        assert any(name == f"{layer}.self_s" for name, _, _ in layers.PER_LAYER)


def test_a_span_the_layer_metrics_read_but_nobody_opened_is_reported():
    expected = layers.EXPECTED_SPANS["fluid_hybrid"]
    functions = {key: [3, 0.1, 0.1, 0.1] for key in expected}
    assert layers.missing_spans("fluid_hybrid", {"trace": {"functions": functions}}) == []
    # A callback renamed in the program: its old span name is never opened.
    del functions["cdn|FluidTraffic._step"]
    functions["core|RiptideAgent._tick"][0] = 0
    assert layers.missing_spans("fluid_hybrid", {"trace": {"functions": functions}}) == [
        "core|RiptideAgent._tick", "cdn|FluidTraffic._step",
    ]
