"""Extension benchmark: the TTL relearning penalty across traffic valleys.

Quantifies the Discussion-section statement that an idle path makes
Riptide's "effectiveness ... minimal": valleys longer than the TTL expire
the learned routes, so the first fetch of each peak pays full slow start.
"""

from repro.experiments import ext_diurnal


def test_ext_diurnal_relearning_penalty():
    result = ext_diurnal.run()
    print("\n" + result.report())
    # The first post-valley fetch starts from the kernel default and is
    # substantially slower than a mid-peak fetch on learned routes.
    assert result.relearning_penalty > 0.3
    assert result.post_valley_median > result.mid_peak_median
