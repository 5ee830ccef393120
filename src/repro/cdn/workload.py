"""Organic background traffic between PoPs.

The paper's Figure 11 shows that Riptide's learned windows are driven by
the PoP's *organic* traffic profile: a busy PoP observes large windows
and learns aggressive initcwnds, a probe-only PoP does not.  This module
generates that organic traffic: Poisson arrivals of fetches with sizes
drawn from the production file-size distribution, plus connection churn
(a fraction of connections close after use, so new connections keep
being created — the population Riptide improves).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cdn.diurnal import ConstantProfile, RateProfile
from repro.cdn.filesizes import FileSizeDistribution
from repro.cdn.transfer import TransferClient, TransferResult
from repro.net.addresses import IPv4Address
from repro.sim.kernel import Simulator


@dataclass(frozen=True, eq=False)
class OrganicWorkloadConfig:
    """Parameters of one host's organic traffic toward a destination set."""

    rate_per_second: float = 2.0
    close_probability: float = 0.3
    max_object_bytes: int = 4 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.rate_per_second <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_per_second}")
        if not 0.0 <= self.close_probability <= 1.0:
            raise ValueError(
                f"close_probability must be in [0, 1], got {self.close_probability}"
            )
        if self.max_object_bytes < 1:
            raise ValueError("max_object_bytes must be positive")


class OrganicWorkload:
    """Poisson fetches from one client toward a set of destinations."""

    def __init__(
        self,
        sim: Simulator,
        client: TransferClient,
        destinations: list[IPv4Address],
        sizes: FileSizeDistribution,
        rng: random.Random,
        config: OrganicWorkloadConfig | None = None,
        rate_profile: RateProfile | None = None,
        name: str = "organic",
    ) -> None:
        if not destinations:
            raise ValueError("workload needs at least one destination")
        self._sim = sim
        self._client = client
        self._destinations = list(destinations)
        self._sizes = sizes
        self._rng = rng
        self._config = config if config is not None else OrganicWorkloadConfig()
        self._profile = rate_profile if rate_profile is not None else ConstantProfile()
        self.name = name
        self._running = False
        self.transfers_issued = 0
        self.transfers_completed = 0
        self.bytes_fetched = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next_arrival()

    def stop(self) -> None:
        self._running = False

    def _schedule_next_arrival(self) -> None:
        # Lewis-Shedler thinning: sample candidate arrivals at the
        # profile's peak rate, accept each with probability
        # factor(now) / max_factor.  Exact for any bounded profile.
        peak = self._profile.max_factor
        if peak <= 0.0:
            return  # a permanently silent profile generates nothing
        delay = self._rng.expovariate(self._config.rate_per_second * peak)
        self._sim.schedule(delay, self._arrival)

    def _arrival(self) -> None:
        if not self._running:
            return
        acceptance = self._profile.factor(self._sim.now) / self._profile.max_factor
        if self._rng.random() >= acceptance:
            self._schedule_next_arrival()
            return
        destination = self._rng.choice(self._destinations)
        size = min(self._sizes.sample(self._rng), self._config.max_object_bytes)
        self.transfers_issued += 1
        self._client.fetch(destination, size, on_complete=self._on_complete)
        self._schedule_next_arrival()

    def _on_complete(self, result: TransferResult) -> None:
        if result.completed:
            self.transfers_completed += 1
            self.bytes_fetched += result.size_bytes
            # Connection churn: sometimes drop the connection so future
            # fetches must open fresh ones (the case Riptide accelerates).
            if self._rng.random() < self._config.close_probability:
                self._client.close_idle_connections(result.destination)

    def __repr__(self) -> str:
        return (
            f"<OrganicWorkload {self.name!r} issued={self.transfers_issued} "
            f"completed={self.transfers_completed}>"
        )
