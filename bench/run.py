"""The repo benchmark: four workloads, host-time and fidelity metrics, layer trace.

    python3 bench/run.py [--seed N] [--workload NAME] [--smoke]
    python3 bench/run.py --calibrate
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs every workload, checks the outputs and prints every
metric by name with its unit.  The last form is the driver's contract
(see ``BENCHMARK.json``): one workload, measured for about ``S``
seconds, one JSON object on the last line of standard output.

How a run is laid out: each repeat of each workload runs in a fresh
single-threaded child process (``worker.py``); repeats are interleaved
round-robin across workloads so that drift on the shared host hits all
alike; no warm-up repeat is discarded, because users pay import and
cold start on every ``repro run``; every timing is reported as the
median with min, max, quartiles and the sample count beside it, both as
the clock read it (``*_raw_s``) and corrected for the speed the host ran
at meanwhile (``hostspeed.py``).  The loop is closed, with one client:
the simulator is a batch program and the next repeat starts when the
previous one ends.  After the timed repeats one extra repeat per workload
runs under the tracer; end-to-end metrics never come from it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from layers import PER_LAYER, derive, missing_spans, simulate_partition_error  # noqa: E402
from stats import spread, summarize  # noqa: E402

#: Workloads in the order they run; reasons and sizes live in workloads.py,
#: which only the child processes import (it pulls in the whole program).
WORKLOAD_NAMES = ("probe_study", "bulk_transfer", "fluid_hybrid", "chaos_forensics")

#: Unit of ``fidelity_gap`` per workload (its definition differs by workload).
FIDELITY_UNITS = {
    "probe_study": "pp",
    "bulk_transfer": "rtt_rounds",
    "fluid_hybrid": "fraction",
    "chaos_forensics": "contracts",
}

#: Workloads whose ``fidelity_gap`` is a study of its own, run in an untimed
#: child (``workloads.REFERENCES``).
REFERENCED = ("fluid_hybrid",)

#: Host-time end-to-end metrics (name, unit), reported as median + spread.
#: ``setup_s`` and ``wall_s`` are corrected for the host's speed, the
#: ``*_raw_s`` pair is what the clock read.  ``wall_ms_per_mb`` is
#: ``wall_s`` over the application payload the simulation delivered: the
#: payload is fixed by workload and seed, so an optimisation cannot change
#: it, and it takes out the +-10% by which the amount of simulated traffic
#: moves from seed to seed.
HOST_TIME = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_ms_per_mb", "ms/MB"),
    ("peak_rss_mb", "MiB"),
    ("setup_raw_s", "s"),
    ("wall_raw_s", "s"),
)

#: Simulated results: bit-for-bit repeatable for a fixed seed.
EXACT = ("fail_ratio", "fidelity_gap", "sim_new_conn_p50_ms", "sim_new_conn_p90_ms")

#: What ``BENCHMARK.json`` lists under ``end_to_end``: the host-time
#: metrics that are steady across seeds.  ``wall_s`` moves with the seed
#: and the exact metrics can be 0, so the contract cannot bound them.
CONTRACT_END_TO_END = ("wall_ms_per_mb", "setup_s", "peak_rss_mb")

#: What ``BENCHMARK.json`` gives as ``run_seconds``: 92 runs of up to half a
#: repeat more than this fit the driver's 3420 s.
RUN_SECONDS = 30
FULL_REPEATS = 5
#: Never fewer timed repeats behind an end-to-end median, whatever the budget.
MIN_REPEATS = 3
#: ``--trace 1`` reports per-layer metrics only; its timed repeats are the
#: base of ``trace.overhead_ratio`` and ``obs.capture_tax`` and of the
#: checks across repeats.
TRACE_BASE_REPEATS = 2
MAX_TRACE_OVERHEAD = 2.0
MAX_PARTITION_ERROR = 0.02
CHILD_TIMEOUT_S = 170


@dataclass
class Runs:
    """The child records of one workload in one invocation."""

    name: str
    timed: list[dict[str, Any]] = field(default_factory=list)
    traced: dict[str, Any] | None = None
    #: ``bulk_transfer`` once more with instrumentation on (``obs.capture_tax``).
    instrumented: dict[str, Any] | None = None
    #: ``fidelity_gap`` from the workload's reference study, where it has one.
    reference_gap: float | None = None
    #: Host seconds spent in this workload's timed children.
    spent: float = 0.0


def spawn(name: str, seed: int, *flags: str) -> tuple[dict[str, Any], float]:
    """Run one repeat in a fresh child; returns its record and how long it took."""
    started = time.monotonic()
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"), name,
        "--seed", str(seed), "--spawned-at", repr(started), *flags,
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    took = time.monotonic() - started
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(
            f"{name}: worker exited with {done.returncode}\n{done.stderr.strip()}"
        )
    return json.loads(done.stdout.splitlines()[-1]), took


def measure(
    names: tuple[str, ...],
    seed: int,
    min_repeats: int,
    seconds: float | None,
    traced: bool,
) -> dict[str, Runs]:
    """Timed repeats, round-robin across workloads, then the traced repeats.

    With ``seconds`` a workload keeps repeating until its children have
    used about that much host time (it stops at the repeat count whose
    total lands nearest the budget); without, it runs ``min_repeats``.
    """
    runs = {name: Runs(name) for name in names}

    def wants_more(r: Runs) -> bool:
        count = len(r.timed)
        if count < min_repeats:
            return True
        return seconds is not None and r.spent + r.spent / count / 2 < seconds

    while pending := [r for r in runs.values() if wants_more(r)]:
        for r in pending:
            record, took = spawn(r.name, seed)
            r.timed.append(record)
            r.spent += took
    if traced:
        for r in runs.values():
            r.traced, _ = spawn(r.name, seed, "--trace")
            if r.name == "bulk_transfer":
                r.instrumented, _ = spawn(r.name, seed, "--instrumented")
            if r.name in REFERENCED:
                r.reference_gap = spawn(r.name, seed, "--reference")[0]["fidelity_gap"]
    return runs


def evaluate(r: Runs) -> dict[str, Any]:
    """One workload's result row: summaries, exact metrics, layers, checks."""
    first = r.timed[0]
    children = [*r.timed, *(c for c in (r.traced, r.instrumented) if c is not None)]
    raw = {metric: [c[metric] for c in r.timed] for metric, _ in HOST_TIME}
    checks = [dict(check) for check in first["checks"]]

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": ok, "detail": detail})

    digests = {c["artifact_sha256"] for c in children}
    check(
        "artifact_sha256 identical across repeats",
        len(digests) == 1,
        f"{len(children)} repeats, {len(digests)} distinct digest(s)",
    )
    drifting = [key for key in EXACT if len({c[key] for c in r.timed}) != 1] + (
        ["events_fired"]
        if len({c["counts"]["events_fired"] for c in children}) != 1
        else []
    )
    check(
        "exact metrics and event counts identical across repeats",
        not drifting,
        "differs: " + ", ".join(drifting) if drifting else "bit-equal",
    )

    result: dict[str, Any] = {
        "workload": r.name,
        "seed": first["seed"],
        "repeats": len(r.timed),
        "artifact_sha256": first["artifact_sha256"],
        "end_to_end": {metric: summarize(values) for metric, values in raw.items()},
        "exact": {
            **{key: first[key] for key in EXACT},
            **({"fidelity_gap": r.reference_gap} if r.name in REFERENCED else {}),
        },
        "latency_samples": first["latency_samples"],
        "raw": raw,
    }
    if r.traced is not None:
        overhead = r.traced["wall_s"] / statistics.median(raw["wall_s"])
        tax = None
        if r.instrumented is not None:
            tax = r.instrumented["wall_s"] / statistics.median(raw["wall_s"]) - 1.0
        layers = derive(r.traced, overhead, tax)
        layers.update(result["exact"])
        result["per_layer"] = layers
        result["chrome_trace"] = r.traced["chrome_trace"]
        check(
            "trace overhead within limit",
            overhead <= MAX_TRACE_OVERHEAD,
            f"traced wall / median wall_s = {overhead:.2f} (limit {MAX_TRACE_OVERHEAD})",
        )
        missing = missing_spans(r.name, r.traced)
        check(
            "traced spans the layer metrics read are present",
            not missing,
            "never called: " + ", ".join(missing) if missing else "all called",
        )
        error = simulate_partition_error(r.traced)
        check(
            "layer self times add up to the simulate wall",
            error <= MAX_PARTITION_ERROR,
            f"relative gap {error:.2e} (limit {MAX_PARTITION_ERROR})",
        )
    # Operations: every child's finished transfers, exchanges and own
    # checks, plus the cross-repeat checks made here.
    cross = checks[len(first["checks"]):]
    result["attempted"] = sum(c["attempted"] for c in children) + len(cross)
    result["failed"] = sum(c["failed"] for c in children) + sum(
        1 for c in cross if not c["ok"]
    )
    result["checks"] = checks
    result["correct"] = all(c["ok"] for c in checks) and result["failed"] == 0
    return result


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def provenance() -> dict[str, Any]:
    """Git sha and host fingerprint carried by every result row."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=BENCH_DIR, capture_output=True,
            text=True, timeout=10, check=False,
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _number(value: float | None) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:.6g}"


def print_result(result: dict[str, Any]) -> None:
    name = result["workload"]
    print(
        f"\n== {name}  seed {result['seed']}  R={result['repeats']}  "
        f"artifact_sha256 {result['artifact_sha256']}"
    )
    print(f"  {'end-to-end (host time)':<24}{'median':>10}{'min':>10}{'max':>10}"
          f"{'q1':>10}{'q3':>10}{'n':>4}  unit")
    for metric, unit in HOST_TIME:
        s = result["end_to_end"][metric]
        print(
            f"  {metric:<24}{s['median']:>10.4f}{s['min']:>10.4f}{s['max']:>10.4f}"
            f"{s['q1']:>10.4f}{s['q3']:>10.4f}{s['n']:>4}  {unit}"
        )
    exact = result["exact"]
    samples = result["latency_samples"]
    print("  end-to-end (simulated, exact for the seed)")
    print(f"  {'fail_ratio':<24}{_number(exact['fail_ratio']):>10}  ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(f"  {'fidelity_gap':<24}{_number(exact['fidelity_gap']):>10}  "
          f"{FIDELITY_UNITS[name]}")
    for key in ("sim_new_conn_p50_ms", "sim_new_conn_p90_ms"):
        print(f"  {key:<24}{_number(exact[key]):>10}  ms  ({samples} samples)")
    if "per_layer" in result:
        print(f"  per-layer (traced repeat; Chrome trace: {result['chrome_trace']})")
        for metric, unit, _ in PER_LAYER:
            if metric not in EXACT:
                print(f"  {metric:<28}{_number(result['per_layer'][metric]):>16}  {unit}")
    failing = [c for c in result["checks"] if not c["ok"]]
    print(f"  checks: {len(result['checks']) - len(failing)} of {len(result['checks'])} ok")
    for c in failing:
        print(f"  FAILED {c['name']}: {c['detail']}")


def contract_line(result: dict[str, Any], trace: bool) -> str:
    """The driver's result object: exactly correct/attempted/failed/metrics."""
    if trace:
        metrics = {
            # The contract wants a number for every metric on every workload;
            # one that is not measured on this workload (None) is sent as 0.
            metric: {"value": 0.0 if value is None else value, "unit": unit}
            for metric, unit, _ in PER_LAYER
            for value in (result["per_layer"][metric],)
        }
    else:
        units = dict(HOST_TIME)
        metrics = {
            metric: {"value": result["end_to_end"][metric]["median"], "unit": units[metric]}
            for metric in CONTRACT_END_TO_END
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def append_history(results: list[dict[str, Any]], seed: int) -> None:
    line = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        **provenance(),
        "workloads": {
            r["workload"]: {k: v for k, v in r.items() if k != "workload"}
            for r in results
        },
    }
    with open(BENCH_DIR / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")


def calibrate(names: tuple[str, ...], seed: int, seconds: float, seeds: int) -> dict[str, Any]:
    """Two sets of runs of the same tree, laid out as the driver lays them out.

    Each set runs every workload once per seed (``seed`` .. ``seed + seeds
    - 1``) for ``seconds``; a metric's value for a run is the median over
    that run's repeats.  Per set: median, quartiles and spread (q3 - q1 over
    the median) of those values; across sets: the ratio of the medians.
    """
    sets: list[dict[str, dict[str, list[float]]]] = []
    for label in ("A", "B"):
        values: dict[str, dict[str, list[float]]] = {
            name: {metric: [] for metric, _ in HOST_TIME} for name in names
        }
        for offset in range(seeds):
            for name in names:
                result = evaluate(
                    measure((name,), seed + offset, MIN_REPEATS, seconds, traced=False)[name]
                )
                if not result["correct"]:
                    raise RuntimeError(f"{name} seed {seed + offset}: output checks failed")
                for metric, _ in HOST_TIME:
                    values[name][metric].append(result["end_to_end"][metric]["median"])
            print(f"calibrate: set {label}, seed {seed + offset} done", flush=True)
        sets.append(values)
    report: dict[str, Any] = {"seed": seed, "seeds": seeds, "seconds": seconds, **provenance()}
    report["workloads"] = {}
    for name in names:
        report["workloads"][name] = {}
        for metric, unit in HOST_TIME:
            a, b = (s[name][metric] for s in sets)
            report["workloads"][name][metric] = {
                "unit": unit,
                "A": {**summarize(a), "spread": spread(a), "values": a},
                "B": {**summarize(b), "spread": spread(b), "values": b},
                "ratio_B_over_A": statistics.median(b) / statistics.median(a),
            }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload only")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float,
        help="repeat each workload for about this long instead of R=5 times",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="driver contract: print one JSON result line with the end-to-end (0) "
        "or per-layer (1) metrics; needs --workload and --seconds",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="one repeat per workload plus the traced repeat; never touches history",
    )
    parser.add_argument(
        "--calibrate", action="store_true",
        help="two sets of ten-seed runs; writes bench/out/calibration.json",
    )
    args = parser.parse_args(argv)
    names = (args.workload,) if args.workload else WORKLOAD_NAMES

    if args.calibrate:
        report = calibrate(names, args.seed, args.seconds or RUN_SECONDS, seeds=10)
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        (out / "calibration.json").write_text(json.dumps(report, indent=1) + "\n", "utf-8")
        for name, metrics in report["workloads"].items():
            for metric, row in metrics.items():
                print(
                    f"{name:<16}{metric:<16} median A {row['A']['median']:.4f} "
                    f"B {row['B']['median']:.4f}  spread A {row['A']['spread']:.3f} "
                    f"B {row['B']['spread']:.3f}  B/A {row['ratio_B_over_A']:.3f}"
                )
        return 0

    contract = args.trace is not None
    if contract and not (args.workload and args.seconds):
        parser.error("--trace needs --workload and --seconds")
    if contract and args.trace:
        # The traced repeat (and, on bulk_transfer, the instrumented one)
        # takes about as long as two timed repeats: leave it half the budget.
        seconds: float | None = args.seconds / 2
        repeats = TRACE_BASE_REPEATS
    elif args.seconds:
        seconds, repeats = args.seconds, MIN_REPEATS
    else:
        seconds, repeats = None, 1 if args.smoke else FULL_REPEATS
    runs = measure(names, args.seed, repeats, seconds, traced=args.trace != 0)
    results = [evaluate(r) for r in runs.values()]

    print(json.dumps({"seed": args.seed, **provenance()}))
    for result in results:
        print_result(result)
    full = not (contract or args.smoke or args.workload or args.seconds)
    if full:
        append_history(results, args.seed)
    if contract:
        print(contract_line(results[0], bool(args.trace)))
    # Under the contract the verdict travels in the result line.
    return 0 if contract or all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
