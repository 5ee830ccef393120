"""``repro.parallel`` — the multiprocessing run executor.

Every simulation-backed reproduction is a set of *independent* seeded
runs (seeds of a stability sweep, deployments of a c_max sweep, the
control and Riptide arms of a paired probe study).  This package fans
those runs out across a pool of forked worker processes while keeping
the three guarantees the serial path gives:

* **Deterministic results.**  Task ``i``'s return value lands at index
  ``i`` regardless of which worker ran it or when it finished, and each
  run is a pure function of its seed — so a parallel sweep returns
  byte-identical values in identical order to the serial sweep.
* **Observability.**  Each worker runs its task under its own
  ``repro.obs`` capture and ships the instrumentation back; the parent
  merges worker registries in task order, producing the same aggregate
  a serial run under one capture would have produced.
* **Attributable failures.**  A task that raises surfaces as a
  :class:`WorkerFailure` carrying the task index, its label (seed,
  config, arm name) and the worker-side traceback; a worker that dies
  outright is detected and reported the same way instead of hanging the
  parent.

See ``docs/ARCHITECTURE.md`` ("Parallel execution") for the merge
semantics.
"""

from repro.parallel.executor import (
    WorkerFailure,
    default_workers,
    fork_available,
    run_tasks,
)

__all__ = [
    "WorkerFailure",
    "default_workers",
    "fork_available",
    "run_tasks",
]
