"""Output checks that have to hold on every seed, not only on the ones sized with."""

from types import SimpleNamespace

import workloads
from tracer import Tracer


def _probe(rtt, rounds, new_connection, size_bytes=10_000, completed=True):
    return SimpleNamespace(
        path_rtt=rtt,
        total_time=rtt * rounds if completed else None,
        new_connection=new_connection,
        size_bytes=size_bytes,
        completed=completed,
    )


def test_small_probes_are_judged_by_their_own_rtt_and_connection_kind():
    arm = SimpleNamespace(
        fleet=SimpleNamespace(
            results=[
                _probe(0.006, 1.015, new_connection=False),
                _probe(0.100, 2.001, new_connection=True),
                _probe(0.100, 1.0, new_connection=True),  # too fast for a handshake
                _probe(0.020, 3.0, new_connection=False),  # a loss recovery
                _probe(0.020, 9.0, new_connection=True, size_bytes=100_000),
                _probe(0.020, 0.0, new_connection=False, completed=False),
            ]
        )
    )
    assert workloads._small_probes_on_model(arm) == (2, 4)


def test_probe_study_passes_on_a_seed_whose_10kb_improved_fraction_is_not_zero():
    # On this seed one probe finds a pooled connection in the Riptide arm
    # only, and the 30-sample CDF comparison reads that as 5.5% improved.
    with Tracer().install(full=False) as tracer:
        outcome = workloads.probe_study(516638813, tracer)
    assert "improved fraction 0.055" in outcome.checks[0].detail
    assert [check.name for check in outcome.checks if not check.ok] == []
