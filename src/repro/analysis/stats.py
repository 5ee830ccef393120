"""Comparison statistics for paired experiment runs.

:func:`percentile_gain_profile` implements the Figure 15/16 analysis:
"the changes in performance by percentile ... in 5% steps" — the
fractional improvement of the treatment run over the baseline run at each
percentile of their respective completion-time distributions.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.analysis.cdf import EmpiricalCdf
from repro.records import Frozen


class PercentileGain(Frozen):
    """Gain at one percentile of the completion-time distribution."""

    __slots__ = ("percentile", "baseline", "treatment")

    percentile: float
    baseline: float
    treatment: float

    def __init__(self, percentile: float, baseline: float, treatment: float) -> None:
        object.__setattr__(self, "percentile", percentile)
        object.__setattr__(self, "baseline", baseline)
        object.__setattr__(self, "treatment", treatment)

    @property
    def gain(self) -> float:
        """Fractional improvement: 0.3 = 30 % faster than baseline."""
        if self.baseline == 0:
            return 0.0
        return 1.0 - self.treatment / self.baseline


def percentile_gain_profile(
    baseline_samples: Iterable[float],
    treatment_samples: Iterable[float],
) -> list[PercentileGain]:
    """Per-percentile gains of treatment over baseline (Figures 15/16),
    at the 5th, 10th, ..., 95th percentile."""
    baseline = EmpiricalCdf(baseline_samples)
    treatment = EmpiricalCdf(treatment_samples)
    return [
        PercentileGain(
            percentile=float(level),
            baseline=baseline.quantile(level / 100.0),
            treatment=treatment.quantile(level / 100.0),
        )
        for level in range(5, 100, 5)
    ]


def fraction_below(samples: Iterable[float], threshold: float) -> float:
    """Fraction of samples at or below a threshold."""
    values = list(samples)
    if not values:
        raise ValueError("fraction_below needs at least one sample")
    return sum(1 for v in values if v <= threshold) / len(values)


def summarize(samples: Sequence[float]) -> dict[str, float]:
    """Small summary used by experiment reports."""
    cdf = EmpiricalCdf(samples)
    return {
        "n": float(len(cdf)),
        "min": cdf.min,
        "p25": cdf.quantile(0.25),
        "median": cdf.median,
        "p75": cdf.quantile(0.75),
        "p90": cdf.quantile(0.90),
        "max": cdf.max,
        "mean": cdf.mean,
    }
