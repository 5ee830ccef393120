"""The fork-based task executor.

Tasks are zero-argument callables (typically closures over a seed or an
experiment config).  The pool uses the ``fork`` start method, so tasks
are inherited by workers through the process image and never pickled —
closures and lambdas work exactly as they do serially.  Only *results*
cross the process boundary, together with each task's captured
``repro.obs`` instrumentation, and both are pickled explicitly inside
the worker so that an unpicklable result surfaces as that task's
failure rather than a hang.

Scheduling is static round-robin (worker ``w`` runs tasks ``w``,
``w + W``, ...): with deterministic per-task cost it keeps the load
balanced, and it lets the parent attribute every task to a worker so a
worker that dies without reporting is converted into per-task failures
instead of blocking the collection loop forever.  The fork machinery
is imported by the first forked run; a serial run never loads it.
"""

from __future__ import annotations

import gc
import os
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

from repro.obs.instrument import active_instrumentation, capture

if TYPE_CHECKING:
    import multiprocessing.queues

#: Seconds between liveness checks while waiting for worker results.
_POLL_INTERVAL = 0.2


class WorkerFailure(RuntimeError):
    """A task raised (or its worker died) during a parallel run.

    Carries enough context to reproduce the failure serially: the task
    index, the caller-supplied label (seed, arm, config description) and
    the worker-side traceback text.
    """

    def __init__(
        self,
        index: int,
        label: str,
        message: str,
        original_type: str | None = None,
        worker_traceback: str | None = None,
    ) -> None:
        self.index = index
        self.label = label
        self.original_type = original_type
        self.worker_traceback = worker_traceback
        detail = f"task {index} ({label}) failed: {message}"
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback.rstrip()}"
        super().__init__(detail)


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """Worker count when the caller does not choose one."""
    return os.cpu_count() or 1


def run_tasks(
    tasks: Sequence[Callable[[], Any]],
    workers: int | None = None,
    labels: Sequence[str] | None = None,
) -> list[Any]:
    """Run independent tasks, possibly in parallel, preserving order.

    Returns ``[tasks[0](), tasks[1](), ...]`` — results in task order,
    regardless of completion order.  With ``workers`` <= 1 (or on a
    platform without ``fork``) the tasks run serially in-process, which
    is also the reference semantics the parallel path reproduces.

    Each worker runs its tasks under a fresh ``repro.obs`` capture; the
    parent merges those captures in task order into the innermost active
    capture, if any.  A failing
    task raises :class:`WorkerFailure` for the lowest failing index, and
    only instrumentation of tasks *before* that index is merged — the
    state a serial run stopping at the same failure would have left.
    """
    tasks = list(tasks)
    count = len(tasks)
    if labels is None:
        labels = [f"task-{index}" for index in range(count)]
    elif len(labels) != count:
        raise ValueError(f"got {len(labels)} labels for {count} tasks")
    else:
        labels = [str(label) for label in labels]
    if count == 0:
        return []

    if workers is None:
        workers = default_workers()
    workers = max(1, min(int(workers), count))
    if workers == 1 or not fork_available():
        return _run_serial(tasks, labels)
    return _run_forked(tasks, labels, workers)


# ----------------------------------------------------------------------
# serial reference path
# ----------------------------------------------------------------------


def _run_serial(tasks: list[Callable[[], Any]], labels: list[str]) -> list[Any]:
    results = []
    for index, task in enumerate(tasks):
        try:
            results.append(task())
        except Exception as error:
            raise WorkerFailure(
                index,
                labels[index],
                str(error),
                original_type=type(error).__name__,
            ) from error
        # A finished task's simulation is cyclic garbage (hosts, links and
        # sockets point back at their simulator), and ``Simulator.run``
        # keeps the collector off for the next task's whole run: free it
        # here, at the boundary.
        gc.collect()
    return results


# ----------------------------------------------------------------------
# forked pool
# ----------------------------------------------------------------------


def _run_forked(
    tasks: list[Callable[[], Any]],
    labels: list[str],
    workers: int,
) -> list[Any]:
    import multiprocessing
    import pickle
    import traceback

    context = multiprocessing.get_context("fork")
    result_queue = context.Queue()
    assignment = {w: list(range(w, len(tasks), workers)) for w in range(workers)}

    def worker_main(worker_id: int) -> None:
        for index in assignment[worker_id]:
            try:
                with capture() as instrumentation:
                    result = tasks[index]()
                payload = pickle.dumps(("ok", result, instrumentation))
            except BaseException as error:  # report, keep serving later tasks
                payload = pickle.dumps(
                    ("err", type(error).__name__, str(error), traceback.format_exc())
                )
            result_queue.put((index, payload))

    processes = {}
    for worker_id in range(workers):
        process = context.Process(target=worker_main, args=(worker_id,), daemon=True)
        process.start()
        processes[worker_id] = process

    outcomes: dict[int, tuple[Any, ...]] = {}
    try:
        _collect(len(tasks), result_queue, processes, assignment, outcomes)
    finally:
        for process in processes.values():
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join(timeout=5.0)
        result_queue.close()

    return _resolve(outcomes, labels)


def _collect(
    count: int,
    result_queue: multiprocessing.queues.Queue,
    processes: dict[int, multiprocessing.Process],
    assignment: dict[int, list[int]],
    outcomes: dict[int, tuple[Any, ...]],
) -> None:
    """Drain worker results, converting dead workers into failures."""
    import pickle
    import queue

    while len(outcomes) < count:
        try:
            index, payload = result_queue.get(timeout=_POLL_INTERVAL)
        except queue.Empty:
            dead = [w for w, p in processes.items() if not p.is_alive()]
            # A worker may die after flushing results: drain before blaming.
            try:
                while True:
                    index, payload = result_queue.get_nowait()
                    outcomes[index] = pickle.loads(payload)
            except queue.Empty:
                pass
            for worker_id in dead:
                process = processes[worker_id]
                for index in assignment[worker_id]:
                    if index not in outcomes:
                        outcomes[index] = (
                            "err",
                            "WorkerDied",
                            f"worker process died (exitcode={process.exitcode}) "
                            "before reporting this task",
                            None,
                        )
            continue
        outcomes[index] = pickle.loads(payload)


def _resolve(
    outcomes: dict[int, tuple[Any, ...]],
    labels: list[str],
) -> list[Any]:
    """Merge instrumentation in task order; return results or raise."""
    target = active_instrumentation()
    results = []
    for index in sorted(outcomes):
        outcome = outcomes[index]
        if outcome[0] != "ok":
            _, original_type, message, worker_tb = outcome
            raise WorkerFailure(
                index,
                labels[index],
                message,
                original_type=original_type,
                worker_traceback=worker_tb,
            )
        _, result, instrumentation = outcome
        if target is not None:
            target.merge_from(instrumentation)
        results.append(result)
    return results
