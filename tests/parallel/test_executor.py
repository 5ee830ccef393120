"""Tests for the forked task executor."""

import os

import pytest

from repro.obs.instrument import capture
from repro.parallel.executor import WorkerFailure, default_workers, fork_available, run_tasks

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)


def _square_task(n):
    return lambda: n * n


class TestOrdering:
    def test_results_in_task_order_serial(self):
        results = run_tasks([_square_task(n) for n in range(6)], workers=1)
        assert results == [0, 1, 4, 9, 16, 25]

    @needs_fork
    def test_results_in_task_order_parallel(self):
        results = run_tasks([_square_task(n) for n in range(11)], workers=3)
        assert results == [n * n for n in range(11)]

    @needs_fork
    def test_parallel_equals_serial(self):
        tasks = [_square_task(n) for n in range(7)]
        assert run_tasks(tasks, workers=4) == run_tasks(tasks, workers=1)

    def test_empty_task_list(self):
        assert run_tasks([], workers=4) == []

    @needs_fork
    def test_more_workers_than_tasks(self):
        assert run_tasks([_square_task(2)], workers=8) == [4]

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestLabels:
    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 labels for 1 tasks"):
            run_tasks([_square_task(1)], labels=["a", "b"])

    def test_serial_failure_carries_label_and_origin(self):
        def boom():
            raise ValueError("bad seed")

        with pytest.raises(WorkerFailure, match=r"task 1 \(arm-b\) failed") as info:
            run_tasks([_square_task(1), boom], workers=1, labels=["arm-a", "arm-b"])
        assert info.value.index == 1
        assert info.value.label == "arm-b"
        assert info.value.original_type == "ValueError"

    @needs_fork
    def test_parallel_failure_carries_label_and_traceback(self):
        def boom():
            raise ValueError("bad seed")

        tasks = [_square_task(0), boom, _square_task(2), _square_task(3)]
        with pytest.raises(WorkerFailure, match=r"task 1 \(arm-b\)") as info:
            run_tasks(tasks, workers=2, labels=["arm-a", "arm-b", "arm-c", "arm-d"])
        failure = info.value
        assert failure.index == 1
        assert failure.original_type == "ValueError"
        assert "bad seed" in str(failure)
        assert "ValueError" in failure.worker_traceback

    @needs_fork
    def test_lowest_failing_index_wins(self):
        def boom(tag):
            def fail():
                raise RuntimeError(tag)

            return fail

        with pytest.raises(WorkerFailure) as info:
            run_tasks([_square_task(0), boom("first"), boom("second")], workers=2)
        assert info.value.index == 1
        assert "first" in str(info.value)


class TestWorkerDeath:
    @needs_fork
    def test_unpicklable_result_is_a_task_failure(self):
        tasks = [_square_task(0), lambda: (lambda: None)]
        with pytest.raises(WorkerFailure, match="task 1"):
            run_tasks(tasks, workers=2)

    @needs_fork
    def test_dead_worker_converted_to_failure_without_hang(self):
        def die():
            os._exit(17)

        tasks = [_square_task(0), die, _square_task(2), _square_task(3)]
        with pytest.raises(WorkerFailure, match="worker process died") as info:
            run_tasks(tasks, workers=2, labels=["a", "b", "c", "d"])
        assert info.value.index == 1
        assert info.value.label == "b"
        assert "exitcode=17" in str(info.value)


def _counting_task(amount):
    def task():
        from repro.obs.instrument import active_instrumentation

        obs = active_instrumentation()
        obs.metrics.counter("parallel_test_total").inc(amount)
        obs.metrics.histogram("parallel_test_hist").observe(float(amount))
        return amount

    return task


class TestObsMerge:
    @needs_fork
    def test_merges_into_active_capture(self):
        with capture() as instrumentation:
            results = run_tasks([_counting_task(n) for n in (1, 2, 3)], workers=2)
        assert results == [1, 2, 3]
        assert instrumentation.metrics.counter_value("parallel_test_total") == 6
        histogram = instrumentation.metrics.histogram("parallel_test_hist")
        assert histogram.values() == [1.0, 2.0, 3.0]

    @needs_fork
    def test_merge_matches_serial_run(self):
        tasks = [_counting_task(n) for n in (1, 2, 3, 4)]
        with capture() as serial_obs:
            for task in tasks:
                task()
        with capture() as parallel_obs:
            run_tasks(tasks, workers=2)
        assert (
            parallel_obs.metrics.counter_value("parallel_test_total")
            == serial_obs.metrics.counter_value("parallel_test_total")
        )

    @needs_fork
    def test_failure_merges_only_the_prefix(self):
        def boom():
            raise RuntimeError("x")

        tasks = [_counting_task(1), boom, _counting_task(100)]
        with capture() as instrumentation:
            with pytest.raises(WorkerFailure):
                run_tasks(tasks, workers=2)
        # Task 0's capture merged; task 2's (after the failing index) did not.
        assert instrumentation.metrics.counter_value("parallel_test_total") == 1
