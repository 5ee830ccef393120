"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.kernel import Simulator
from repro.sim.rand import RandomStreams
from repro.testing import TwoHostTestbed


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(1234)


@pytest.fixture
def testbed() -> TwoHostTestbed:
    """A lossless two-host fabric with a 100 ms RTT and fast trunk."""
    bed = TwoHostTestbed(rtt=0.100, bandwidth_bps=1e9)
    bed.serve_echo()
    return bed
