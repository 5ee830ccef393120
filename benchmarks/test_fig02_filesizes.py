"""Figure 2 benchmark: the production file-size distribution."""

from repro.experiments import fig02_filesizes


def test_fig02_filesize_distribution():
    result = fig02_filesizes.run(samples=100_000)
    print("\n" + result.report())
    # Paper anchor: 54% of files exceed the default 10-segment window.
    assert abs(result.fraction_exceeding_default_window - 0.54) < 0.02
