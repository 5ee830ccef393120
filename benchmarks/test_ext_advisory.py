"""Extension benchmark: advisories prevent crowding during load shifts.

Section V proposes feeding load-balancing signals to Riptide so it "sets
more conservative congestion windows to avoid sudden crowding".  This
benchmark stages the crowding: a fleet of connections opens to the same
destination at the same instant, each at the learned initcwnd.
"""

from repro.experiments import ext_advisory


def test_ext_advisory_load_shift():
    result = ext_advisory.run()
    print("\n" + result.report())
    control = result.arms["control"]
    riptide = result.arms["riptide"]
    advisory = result.arms["advisory"]
    # Plain Riptide's simultaneous learned-window bursts crowd the path:
    # most drops, failed transfers — the exact Section V concern.
    assert riptide.queue_drops > control.queue_drops
    assert riptide.completed < control.completed
    # The advisory restores full completion and sheds most of the drops.
    assert advisory.completed == control.completed
    assert advisory.queue_drops < riptide.queue_drops
