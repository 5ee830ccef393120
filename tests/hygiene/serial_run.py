"""A serial run loads neither the fork pool nor the experiment registry."""

from tests.hygiene.shipped import _fresh_interpreter


class SerialRun:
    def test_a_serial_run_loads_neither_the_fork_pool_nor_the_registry(self):
        """Import what ``bench/workloads.py`` imports, run two tasks with
        ``workers=1``, and list which of the fork machinery and the
        experiment registry (which loads every harness) came along.
        """
        watched = [
            "multiprocessing",
            "pickle",
            "queue",
            "repro.experiments.registry",
            "repro.experiments.tournament",
        ]
        probe = (
            "import sys\n"
            "import repro.analysis.export, repro.testing\n"
            "import repro.experiments.chaos, repro.experiments.hybrid\n"
            "from repro.parallel.executor import run_tasks\n"
            "assert run_tasks([int, float], workers=1) == [0, 0.0]\n"
            f"print(' '.join(name for name in {watched!r} if name in sys.modules))\n"
        )
        assert _fresh_interpreter(probe).split() == []
