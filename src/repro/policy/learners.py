"""Learning policies: the paper's EWMA pipeline and two variants.

:class:`EwmaPolicy` is the pre-refactor agent decision step moved
verbatim behind the :class:`~repro.policy.base.WindowPolicy` protocol —
combiner, then EWMA history, with the same arithmetic, so paired probe
studies stay bit-identical.

:class:`PercentilePolicy` replaces the mean-of-means with a
per-destination percentile of the sampled windows: a p90 learner jumps
to what the *fast* connections achieved instead of averaging them with
the stragglers.

:class:`RttClassPolicy` keeps the EWMA learner but makes ``c_max``
RTT-class-aware: short paths (where an oversized initial window dumps
a burst into a shallow pipe) get a tighter cap than long fat paths,
using the smoothed RTT observed on the destination's own connections.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.core.combiners import Combiner, Observation, make_combiner
from repro.core.history import EwmaHistory
from repro.net.addresses import Prefix
from repro.policy.base import WindowPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import RiptideConfig


class EwmaPolicy(WindowPolicy):
    """The paper's learner: combiner -> history EWMA."""

    name = "ewma"

    def __init__(self, config: "RiptideConfig") -> None:
        self._combiner: Combiner = make_combiner(config.combiner)
        self._history = EwmaHistory(config.alpha)

    def decide(
        self, destination: Prefix, samples: list[Observation], now: float
    ) -> float:
        return self._history.update(destination, self._combiner.combine(samples))

    def forget(self, destination: Prefix) -> None:
        self._history.forget(destination)

    def reset(self) -> None:
        self._history = EwmaHistory(self._history.alpha)


class PercentilePolicy(WindowPolicy):
    """Per-destination nearest-rank percentile of sampled windows."""

    #: Samples retained per destination (a few polls' worth of sockets).
    SAMPLE_WINDOW = 64

    def __init__(self, percentile: float) -> None:
        if not 0.0 < percentile <= 100.0:
            raise ValueError(
                f"percentile must be in (0, 100], got {percentile}"
            )
        self.percentile = percentile
        self.name = f"p{percentile:g}"
        self._samples: dict[Prefix, deque[int]] = {}

    def decide(
        self, destination: Prefix, samples: list[Observation], now: float
    ) -> float:
        window = self._samples.get(destination)
        if window is None:
            window = deque(maxlen=self.SAMPLE_WINDOW)
            self._samples[destination] = window
        for sample in samples:
            window.append(sample.cwnd)
        ordered = sorted(window)
        rank = max(
            0,
            min(
                len(ordered) - 1,
                round(self.percentile / 100.0 * (len(ordered) - 1)),
            ),
        )
        return float(ordered[rank])

    def forget(self, destination: Prefix) -> None:
        self._samples.pop(destination, None)

    def reset(self) -> None:
        self._samples.clear()


#: RTT-class caps: ``(upper bound in seconds, window cap)``; paths
#: slower than the last bound fall through to the configured ``c_max``.
RTT_CLASS_CAPS: tuple[tuple[float, int], ...] = ((0.050, 25), (0.150, 50))


class RttClassPolicy(WindowPolicy):
    """EWMA learning under an RTT-class-aware ``c_max``.

    The effective cap for a destination is the class cap of its
    smoothed RTT (never above the configured ``c_max``); destinations
    with no RTT evidence yet keep the configured cap.
    """

    name = "rtt_cmax"

    #: Weight of the historical value in the per-destination RTT EWMA.
    RTT_ALPHA = 0.7

    def __init__(self, config: "RiptideConfig") -> None:
        self._config = config
        self._learner = EwmaPolicy(config)
        self._srtt: dict[Prefix, float] = {}

    def decide(
        self, destination: Prefix, samples: list[Observation], now: float
    ) -> float:
        final = self._learner.decide(destination, samples, now)
        rtts = [s.srtt for s in samples if s.srtt is not None]
        if rtts:
            observed = sum(rtts) / len(rtts)
            previous = self._srtt.get(destination)
            smoothed = (
                observed
                if previous is None
                else self.RTT_ALPHA * previous + (1.0 - self.RTT_ALPHA) * observed
            )
            self._srtt[destination] = smoothed
        return min(final, float(self.cap_for(destination)))

    def cap_for(self, destination: Prefix) -> int:
        """The effective ``c_max`` for ``destination``'s RTT class."""
        srtt = self._srtt.get(destination)
        if srtt is None:
            return self._config.c_max
        for bound, cap in RTT_CLASS_CAPS:
            if srtt < bound:
                return min(cap, self._config.c_max)
        return self._config.c_max

    def forget(self, destination: Prefix) -> None:
        self._learner.forget(destination)
        self._srtt.pop(destination, None)

    def reset(self) -> None:
        self._learner.reset()
        self._srtt.clear()
