"""A census of the cyclic garbage a simulation leaves behind.

``Simulator.run`` keeps CPython's automatic cyclic collector off for the
length of the call (``repro.sim.kernel``).  That is safe only while the
run loop creates no reference cycles that die: packets, segments and
heap entries must be freed by reference counting alone.  Each cell below
collects, turns the collector off, builds and runs one short simulation
of a kind the studies run, and asserts that a full ``gc.collect()``
afterwards finds nothing.  The cell's result is still held, so a live
cluster is not garbage; a simulation the cell dropped on the way (the
first arm of a paired study) must already be gone, freed at the task
boundary by ``repro.parallel.executor``'s serial path.  A failure names
the types it found.

Re-measure (prints each cell's count, then each benchmark workload's
collector activity at seed 42: collections and seconds inside the
collector, as shipped and with the collector left on inside ``run()``)::

    PYTHONPATH=src python tests/experiments/test_gc_census.py
"""

from __future__ import annotations

import gc
from collections import Counter
from collections.abc import Callable
from typing import Any

import pytest

from repro.experiments import chaos
from repro.experiments.hybrid import HybridStudyConfig, run_differential
from repro.experiments.scenarios import ProbeStudyConfig, run_paired_probe_study
from repro.testing import TwoHostTestbed, request_response

#: Seconds of warm-up and of probing (faults included) in the study cells.
WARMUP = 1.0
DURATION = 4.0


def _probe_pair() -> Any:
    return run_paired_probe_study(
        ProbeStudyConfig(topology_codes=("LHR", "JFK"), warmup=WARMUP, duration=DURATION)
    )


def _chaos(scenario: str) -> Callable[[], Any]:
    def cell() -> Any:
        return chaos.run_chaos_study(
            chaos.ChaosStudyConfig(scenario=scenario, warmup=WARMUP, duration=DURATION)
        )

    return cell


def _hybrid_differential() -> Any:
    return run_differential(HybridStudyConfig(warmup=WARMUP, duration=DURATION))


def _testbed_exchange() -> Any:
    bed = TwoHostTestbed()
    bed.serve_echo()
    return bed, request_response(bed, 200_000)


CELLS: dict[str, Callable[[], Any]] = {
    "probe_pair": _probe_pair,
    "chaos_lossy_agent": _chaos("chaos_lossy_agent"),
    "chaos_partition": _chaos("chaos_partition"),
    "chaos_flaky_tools": _chaos("chaos_flaky_tools"),
    "hybrid_differential": _hybrid_differential,
    "testbed_exchange": _testbed_exchange,
}


def census(cell: Callable[[], Any]) -> Counter[str]:
    """Types of the cyclic garbage ``cell()`` leaves, by count.

    The collector is off while the cell runs, as it is inside every
    ``Simulator.run`` call, and back in its prior state afterwards.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    saved = len(gc.garbage)
    try:
        result = cell()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
        finally:
            gc.set_debug(0)
        found = Counter(type(obj).__qualname__ for obj in gc.garbage[saved:])
        del gc.garbage[saved:]
        del result
    finally:
        if was_enabled:
            gc.enable()
    return found


@pytest.mark.parametrize("name", list(CELLS))
def test_cell_leaves_no_cyclic_garbage(name):
    found = census(CELLS[name])
    assert not found, (
        f"{name} left {sum(found.values())} objects in reference cycles: "
        + ", ".join(f"{kind} x{count}" for kind, count in found.most_common(10))
    )


# ----------------------------------------------------------------------
# script mode
# ----------------------------------------------------------------------


class _CollectorClock:
    """Counts collections and the seconds spent in them (``gc.callbacks``)."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.collections = 0
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._started = self.clock()
        else:
            self.collections += 1
            self.seconds += self.clock() - self._started


def _workload_rows(seed: int) -> list[tuple[str, str, int, float, float]]:
    """Each benchmark workload once as shipped, once with the collector
    left on inside ``run()``: (workload, mode, collections, collector s, wall s)."""
    import sys
    import time
    from contextlib import nullcontext
    from pathlib import Path
    from types import SimpleNamespace
    from unittest import mock

    from repro.sim import kernel

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "bench"))
    from workloads import WORKLOADS

    class _Untraced:
        def call(self, layer: str, name: str, function: Callable[[], Any]) -> Any:
            return function()

    left_on = SimpleNamespace(isenabled=lambda: False)
    rows = []
    for name, (function, _) in WORKLOADS.items():
        for mode in ("shipped", "collector on in run()"):
            clock = _CollectorClock(time.perf_counter)
            gc.collect()
            gc.callbacks.append(clock)
            started = time.perf_counter()
            try:
                with nullcontext() if mode == "shipped" else mock.patch.object(
                    kernel, "gc", left_on
                ):
                    function(seed, _Untraced())
            finally:
                gc.callbacks.remove(clock)
            wall = time.perf_counter() - started
            rows.append((name, mode, clock.collections, clock.seconds, wall))
    return rows


def main() -> None:
    print("cyclic garbage per cell (collector off while it runs):")
    for name, cell in CELLS.items():
        found = census(cell)
        detail = ", ".join(f"{kind} x{count}" for kind, count in found.most_common(5))
        print(f"  {name:22} {sum(found.values()):6d}  {detail}")
    print("\nbenchmark workloads, one repeat at seed 42:")
    print(f"  {'workload':16} {'mode':22} {'collections':>11} {'gc s':>7} {'wall s':>7} {'share':>6}")
    for name, mode, collections, seconds, wall in _workload_rows(42):
        print(
            f"  {name:16} {mode:22} {collections:11d} {seconds:7.3f} {wall:7.2f} "
            f"{seconds / wall:6.1%}"
        )


if __name__ == "__main__":
    main()
