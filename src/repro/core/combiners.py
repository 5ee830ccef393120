"""Combination algorithms (Section III-B, "Combination Algorithm").

Each ``ss`` poll yields several concurrent observations toward one
destination; a combiner reduces them to a single candidate window.

* :class:`AverageCombiner` — the paper's deployed choice: "for each
  destination ... it computes the average congestion window over the
  observed values".
* :class:`MaxCombiner` — "a more aggressive system might use the maximum
  congestion window observed on a path ... the most the link is capable
  of handling".
* :class:`TrafficWeightedCombiner` — "a more conservative system might
  instead weight the value of an observed window by the amount of
  traffic that has passed through the link".
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class Observation:
    """One connection's contribution to a destination group.

    Slotted, immutable by convention, like the
    :class:`~repro.tcp.socket.SocketStats` row it is read from: the agent
    builds one per row per poll, and a frozen ``__init__`` stores each
    field through ``object.__setattr__``.  Nothing may write to one.
    """

    __slots__ = ("cwnd", "bytes_acked", "srtt")

    def __init__(self, cwnd: int, bytes_acked: int = 0, srtt: float | None = None) -> None:
        if cwnd < 1:
            raise ValueError(f"cwnd must be >= 1, got {cwnd}")
        if bytes_acked < 0:
            raise ValueError(f"bytes_acked must be >= 0, got {bytes_acked}")
        if srtt is not None and srtt < 0:
            raise ValueError(f"srtt must be >= 0, got {srtt}")
        self.cwnd = cwnd
        self.bytes_acked = bytes_acked
        #: Smoothed RTT of the connection, when the snapshot carried one.
        #: Combiners ignore it; RTT-aware policies (``repro.policy``) read it.
        self.srtt = srtt


class Combiner(ABC):
    """Reduces a non-empty group of observations to a candidate window."""

    name = "abstract"

    @abstractmethod
    def combine(self, observations: list[Observation]) -> float:
        """Return the combined window.  ``observations`` is non-empty."""

    def _require_observations(self, observations: list[Observation]) -> None:
        if not observations:
            raise ValueError("combine() requires at least one observation")


class AverageCombiner(Combiner):
    """The paper's deployed combiner: plain mean of current windows."""

    name = "average"

    def combine(self, observations: list[Observation]) -> float:
        self._require_observations(observations)
        return sum(obs.cwnd for obs in observations) / len(observations)


class MaxCombiner(Combiner):
    """Aggressive: the largest window any connection achieved."""

    name = "max"

    def combine(self, observations: list[Observation]) -> float:
        self._require_observations(observations)
        return float(max(obs.cwnd for obs in observations))


class TrafficWeightedCombiner(Combiner):
    """Conservative: weight each window by the traffic it carried.

    Idle connections (zero bytes acked) contribute with a small floor
    weight so a group of entirely idle connections still combines.
    """

    name = "traffic_weighted"

    #: Weight given to a connection that has carried no traffic yet.
    IDLE_FLOOR_BYTES = 1.0

    def combine(self, observations: list[Observation]) -> float:
        self._require_observations(observations)
        total_weight = 0.0
        weighted_sum = 0.0
        for obs in observations:
            weight = max(float(obs.bytes_acked), self.IDLE_FLOOR_BYTES)
            total_weight += weight
            weighted_sum += weight * obs.cwnd
        return weighted_sum / total_weight


COMBINERS = {
    AverageCombiner.name: AverageCombiner,
    MaxCombiner.name: MaxCombiner,
    TrafficWeightedCombiner.name: TrafficWeightedCombiner,
}


def make_combiner(name: str) -> Combiner:
    """Instantiate a combiner by its registered name."""
    try:
        return COMBINERS[name]()
    except KeyError:
        # A config typo is a plain ValueError; the internal KeyError is
        # an implementation detail and would only muddy the traceback.
        known = ", ".join(sorted(COMBINERS))
        raise ValueError(f"unknown combiner {name!r} (known: {known})") from None
