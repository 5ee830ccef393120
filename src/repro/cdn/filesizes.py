"""The production file-size distribution (Figure 2).

The paper reports that 54 % of files on the production CDN exceed the
15 KB that fit in the default 10-segment initial window, and Figure 3
implies two further CDF anchors: with an initial window of 50 segments
roughly 31 % *more* files complete in one RTT, and with 100 segments all
but ~15 % do.  A single log-normal hits all three anchors:

    P(size <= 15 KB)  ~ 0.46          (54 % larger than IW10)
    P(size <= 73 KB)  ~ 0.77          (+31 % at IW50)
    P(size <= 146 KB) ~ 0.85          (15 % larger than IW100)

Solving the first and third for the log-normal parameters gives
``mu = 9.817`` (median ~18.3 KB) and ``sigma = 2.002``; the middle anchor
then lands at 0.755, within ~1.5 % of the paper.  Sizes are clamped to a
realistic CDN object range.
"""

from __future__ import annotations

import math
import random

from statistics import NormalDist

_STANDARD_NORMAL = NormalDist()

#: Calibrated against the Figure 2/3 anchors (see module docstring).
PAPER_MU = 9.817
PAPER_SIGMA = 2.002

#: Clamp bounds for sampled object sizes.
MIN_OBJECT_BYTES = 100
MAX_OBJECT_BYTES = 2 * 1024**3


class FileSizeDistribution:
    """The log-normal of ``PAPER_MU``/``PAPER_SIGMA`` over object sizes in
    bytes, clamped to ``[MIN_OBJECT_BYTES, MAX_OBJECT_BYTES]``."""

    @classmethod
    def production_cdn(cls) -> "FileSizeDistribution":
        """The distribution calibrated to the paper's Figure 2."""
        return cls()

    def sample(self, rng: random.Random) -> int:
        """Draw one object size."""
        size = rng.lognormvariate(PAPER_MU, PAPER_SIGMA)
        return int(min(max(size, MIN_OBJECT_BYTES), MAX_OBJECT_BYTES))

    def sample_many(self, rng: random.Random, count: int) -> list[int]:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return [self.sample(rng) for _ in range(count)]

    def cdf(self, size_bytes: float) -> float:
        """P(object size <= size_bytes) for the unclamped log-normal."""
        if size_bytes <= 0:
            return 0.0
        z = (math.log(size_bytes) - PAPER_MU) / PAPER_SIGMA
        return _STANDARD_NORMAL.cdf(z)

    def quantile(self, p: float) -> float:
        """The size at CDF value ``p`` (0 < p < 1)."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        z = _STANDARD_NORMAL.inv_cdf(p)
        return math.exp(PAPER_MU + PAPER_SIGMA * z)

    def fraction_exceeding(self, size_bytes: float) -> float:
        """P(object size > size_bytes) — e.g. the paper's 54 % above 15 KB."""
        return 1.0 - self.cdf(size_bytes)
