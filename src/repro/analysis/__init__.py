"""Measurement analysis: empirical CDFs, percentile gains, renderers."""

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.export import (
    cdf_to_csv,
    cdfs_to_csv,
    metrics_to_csv,
    metrics_to_json,
    rows_to_csv,
    trace_to_json,
    write_csv,
)
from repro.analysis.stats import (
    PercentileGain,
    fraction_below,
    percentile_gain_profile,
    summarize,
)
from repro.analysis.tables import format_cdf_rows, format_table

__all__ = [
    "EmpiricalCdf",
    "PercentileGain",
    "cdf_to_csv",
    "cdfs_to_csv",
    "format_cdf_rows",
    "format_table",
    "fraction_below",
    "metrics_to_csv",
    "metrics_to_json",
    "percentile_gain_profile",
    "rows_to_csv",
    "summarize",
    "trace_to_json",
    "write_csv",
]
