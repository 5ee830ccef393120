"""Measurement analysis: empirical CDFs, percentile gains, renderers."""
