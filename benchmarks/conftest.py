"""Shared fixtures for the figure harness.

Each module regenerates one of the paper's tables or figures, prints
the same rows/series the paper reports (run with ``-s`` to see them)
and asserts the figure's shape.  Nothing here is timed — ``bench/`` is
the benchmark.  The heavy paired probe study is shared by the three
analyses that consume it (Figures 12-14, 15-16 and the Section IV-D
edge cases).
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import ProbeStudyConfig, run_paired_probe_study


@pytest.fixture(scope="session")
def paired_probe_study():
    """One control+Riptide probe study shared across figure modules."""
    return run_paired_probe_study(ProbeStudyConfig())
