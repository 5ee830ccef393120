"""Figure 4 benchmark: theoretical RTT reduction vs file size."""

from repro.experiments import fig04_theoretical_gain


def test_fig04_theoretical_gain():
    result = fig04_theoretical_gain.run()
    print("\n" + result.report())
    # Paper: gains concentrate between 15 KB and 1 MB and diminish after.
    assert result.gain_at(100, 10_000) == 0.0
    assert result.gain_at(100, 100_000) >= 0.5
    assert result.gain_at(100, 30_000_000) < result.peak_gain(100) / 2
