"""Empirical cumulative distribution functions.

Every figure in the paper's evaluation is a CDF; this class is the single
representation the experiment harnesses share.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Sequence


class EmpiricalCdf:
    """An immutable empirical CDF over float samples."""

    def __init__(self, samples: Iterable[float]) -> None:
        values = sorted(float(s) for s in samples)
        if not values:
            raise ValueError("cannot build a CDF from zero samples")
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> Sequence[float]:
        return tuple(self._values)

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def cdf(self, x: float) -> float:
        """P(sample <= x)."""
        return bisect.bisect_right(self._values, x) / len(self._values)

    def quantile(self, p: float) -> float:
        """The value at CDF level ``p`` (linear interpolation)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        if p == 0.0:
            return self._values[0]
        if p == 1.0:
            return self._values[-1]
        position = p * (len(self._values) - 1)
        low = int(position)
        frac = position - low
        if low + 1 >= len(self._values):
            return self._values[-1]
        lo, hi = self._values[low], self._values[low + 1]
        # Clamp: in the subnormal range the convex combination can round
        # outside [lo, hi] (e.g. 0.5 * 5e-324 == 0.0), which would put a
        # quantile below the minimum sample.
        return min(max(lo * (1.0 - frac) + hi * frac, lo), hi)

    def percentiles(self, levels: Iterable[float]) -> list[float]:
        """Quantiles at several levels given in percent (e.g. 5, 50, 95)."""
        return [self.quantile(level / 100.0) for level in levels]

    def __repr__(self) -> str:
        return (
            f"<EmpiricalCdf n={len(self)} min={self._values[0]:.4g} "
            f"median={self.median:.4g} max={self._values[-1]:.4g}>"
        )
