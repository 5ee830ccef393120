"""Stochastic loss models for wide-area links.

Inter-PoP paths in the paper's CDN are "well provisioned" but still subject
to "the usual challenges of Internet communication" — occasional random and
bursty loss.  Each link owns one loss model instance (state such as the
Gilbert–Elliott channel state is per link per direction).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod


class LossModel(ABC):
    """Decides, packet by packet, whether the wire eats the packet."""

    @abstractmethod
    def should_drop(self, rng: random.Random) -> bool:
        """Return True when the packet currently in flight is lost."""

    @abstractmethod
    def clone(self) -> "LossModel":
        """A fresh instance with the same parameters and reset state.

        Each link direction needs independent channel state.
        """

    def mean_loss_rate(self) -> float:
        """Long-run expected per-packet drop probability.

        The fluid traffic engine (:mod:`repro.sim.fluid`) needs a scalar
        loss rate to drive halving dynamics; sampling the stochastic
        model would break determinism, so each model exposes its
        stationary mean instead.  Unknown models conservatively report
        0.0 (the fluid cohort then only halves on congestion overload).
        """
        return 0.0


class NoLoss(LossModel):
    """A perfect wire."""

    def should_drop(self, rng: random.Random) -> bool:
        return False

    def clone(self) -> "NoLoss":
        return NoLoss()

    def __repr__(self) -> str:
        return "NoLoss()"


class BernoulliLoss(LossModel):
    """Independent per-packet loss with fixed probability."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {probability}")
        self.probability = float(probability)

    def should_drop(self, rng: random.Random) -> bool:
        if self.probability == 0.0:
            return False
        return rng.random() < self.probability

    def clone(self) -> "BernoulliLoss":
        return BernoulliLoss(self.probability)

    def mean_loss_rate(self) -> float:
        return self.probability

    def __repr__(self) -> str:
        return f"BernoulliLoss({self.probability})"


class GilbertElliottLoss(LossModel):
    """Two-state bursty loss (good/bad Markov channel).

    ``p_good_to_bad`` and ``p_bad_to_good`` are per-packet transition
    probabilities; ``loss_good``/``loss_bad`` are the loss rates within each
    state.  The classic parametrisation for correlated WAN loss bursts.
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 0.5,
    ) -> None:
        for name, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.p_good_to_bad = float(p_good_to_bad)
        self.p_bad_to_good = float(p_bad_to_good)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        self._in_bad_state = False

    def should_drop(self, rng: random.Random) -> bool:
        if self._in_bad_state:
            if rng.random() < self.p_bad_to_good:
                self._in_bad_state = False
        else:
            if rng.random() < self.p_good_to_bad:
                self._in_bad_state = True
        rate = self.loss_bad if self._in_bad_state else self.loss_good
        if rate == 0.0:
            return False
        return rng.random() < rate

    def clone(self) -> "GilbertElliottLoss":
        return GilbertElliottLoss(
            self.p_good_to_bad, self.p_bad_to_good, self.loss_good, self.loss_bad
        )

    def mean_loss_rate(self) -> float:
        """Stationary loss rate of the two-state Markov channel."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        if denom == 0.0:
            # The chain never leaves its start state (good).
            return self.loss_good
        pi_bad = self.p_good_to_bad / denom
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLoss(p_gb={self.p_good_to_bad}, "
            f"p_bg={self.p_bad_to_good}, good={self.loss_good}, "
            f"bad={self.loss_bad})"
        )
