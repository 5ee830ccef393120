"""The diagnostic probe infrastructure (Section IV-A).

"Every hour, each machine in each PoP requests a small probe object from
every other PoP ... We use three versions of probes of sizes 10, 50 and
100KB, simultaneously."  Probes reuse idle connections when available,
otherwise open new ones — so they measure exactly the cold-start path
Riptide accelerates.  Simulated time is compressed (default: one round
per ``interval`` seconds) without affecting per-transfer timings.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.cdn.pop import PoP
from repro.cdn.transfer import TransferClient, TransferResult, rtt_bucket
from repro.net.addresses import IPv4Address
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicProcess

#: The paper's probe sizes, in bytes.
PAPER_PROBE_SIZES = (10_000, 50_000, 100_000)


class ProbeResult:
    """One probe measurement."""

    __slots__ = ("source_pop", "destination_pop", "size_bytes", "path_rtt", "transfer")

    def __init__(
        self,
        source_pop: str,
        destination_pop: str,
        size_bytes: int,
        path_rtt: float,
        transfer: TransferResult,
    ) -> None:
        self.source_pop = source_pop
        self.destination_pop = destination_pop
        self.size_bytes = size_bytes
        self.path_rtt = path_rtt
        self.transfer = transfer

    @property
    def bucket(self) -> str:
        return rtt_bucket(self.path_rtt)

    @property
    def completed(self) -> bool:
        return self.transfer.completed

    @property
    def total_time(self) -> float:
        return self.transfer.total_time

    @property
    def new_connection(self) -> bool:
        return self.transfer.new_connection


def filter_probe_results(
    results: list[ProbeResult],
    size_bytes: int | None = None,
    bucket: str | None = None,
    source_pop: str | None = None,
    new_connections_only: bool = False,
) -> list[ProbeResult]:
    """Completed probes filtered by size / RTT bucket / source."""
    selected = []
    for probe in results:
        if not probe.completed:
            continue
        if size_bytes is not None and probe.size_bytes != size_bytes:
            continue
        if bucket is not None and probe.bucket != bucket:
            continue
        if source_pop is not None and probe.source_pop != source_pop:
            continue
        if new_connections_only and not probe.new_connection:
            continue
        selected.append(probe)
    return selected


class ProbeResultSet:
    """A detached, picklable batch of probe measurements.

    Exposes the same analysis accessors as a live :class:`ProbeFleet`
    (``completed_results``, ``completion_times``), so the figure
    harnesses work identically on a live fleet and on results shipped
    back from a parallel worker process (:mod:`repro.parallel`).
    """

    __slots__ = ("results", "rounds_issued")

    def __init__(self, results: list[ProbeResult], rounds_issued: int = 0) -> None:
        self.results = results
        self.rounds_issued = rounds_issued

    def completed_results(self, **filters) -> list[ProbeResult]:
        """Completed probes filtered by size / RTT bucket / source."""
        return filter_probe_results(self.results, **filters)

    def completion_times(self, **filters) -> list[float]:
        """Total transfer times of the matching completed probes."""
        return [probe.total_time for probe in self.completed_results(**filters)]

    def __len__(self) -> int:
        return len(self.results)


class _ProbeSource:
    __slots__ = ("pop", "client")

    def __init__(self, pop: PoP, client: TransferClient) -> None:
        self.pop = pop
        self.client = client


class ProbeFleet:
    """Issues probe rounds from a set of source clients to target PoPs."""

    def __init__(
        self,
        sim: Simulator,
        rtt_lookup: Callable[[str, str], float],
        interval: float = 10.0,
        close_before_round: bool = False,
        churn_probability: float = 0.0,
        rng=None,
        arm: str = "",
    ) -> None:
        if not 0.0 <= churn_probability <= 1.0:
            raise ValueError(
                f"churn_probability must be in [0, 1], got {churn_probability}"
            )
        if churn_probability > 0.0 and rng is None:
            raise ValueError("churn_probability requires an rng")
        self._sim = sim
        self._rtt_lookup = rtt_lookup
        #: Fraction of idle probe connections independently closed before
        #: each round.  Models the paper's population mix: most probes
        #: reuse an existing idle connection, the rest open fresh ones —
        #: the cold-start path Riptide adjusts.
        self.churn_probability = churn_probability
        self._rng = rng
        #: When True, each round first closes the sources' idle pooled
        #: connections — modelling the paper's hourly cadence, where
        #: connections rarely survive between rounds, so most probes
        #: exercise the freshly-opened-connection path Riptide adjusts.
        self.close_before_round = close_before_round
        #: When set, idle probe connections are also closed this many
        #: seconds after each round fires (a server/client idle timeout,
        #: far shorter than the paper's hourly probe gap).
        self.idle_close_delay: float | None = None
        self._sources: list[_ProbeSource] = []
        self._targets: list[tuple[PoP, IPv4Address]] = []
        self._process = PeriodicProcess(sim, interval, self._round, name="probes")
        self.results: list[ProbeResult] = []
        self.rounds_issued = 0
        #: Experiment-arm tag stamped on probe spans ("control"/"riptide"
        #: in paired studies) so the attribution report can compute per-arm
        #: tail thresholds.
        self.arm = arm
        self._metrics = sim.obs.metrics
        self._m_issued = self._metrics.counter("probe_transfers_issued")
        self._m_failed = self._metrics.counter("probe_failures")
        self._obs_on = sim.obs.enabled
        self._spans = sim.obs.spans
        self._tsdb = sim.obs.tsdb
        #: Arm-qualified tsdb source for the probe_latency SLO signal.
        self._tsdb_source = f"{arm}:probes" if arm else "probes"

    def add_source(self, pop: PoP, client: TransferClient) -> None:
        """Register a probing machine belonging to ``pop``."""
        self._sources.append(_ProbeSource(pop, client))

    def add_target(self, pop: PoP, address: IPv4Address) -> None:
        """Register a probe destination.

        The base path RTT used for bucketing (Figures 12-14) is resolved
        per (source, destination) pair through ``rtt_lookup``; measured
        times come from the simulation itself.
        """
        self._targets.append((pop, address))

    def start(self, initial_delay: float | None = None) -> None:
        if not self._sources or not self._targets:
            raise ValueError("probe fleet needs sources and targets before starting")
        self._process.start(initial_delay=initial_delay)

    def stop(self) -> None:
        self._process.stop()

    def _round(self) -> None:
        self.rounds_issued += 1
        if self.close_before_round:
            for source in self._sources:
                source.client.close_idle_connections()
        elif self.churn_probability > 0.0:
            for source in self._sources:
                source.client.close_idle_connections(
                    probability=self.churn_probability, rng=self._rng
                )
        if self.idle_close_delay is not None:
            self._sim.schedule(self.idle_close_delay, self._close_idle)
        for source in self._sources:
            for target_pop, address in self._targets:
                if target_pop.code == source.pop.code:
                    continue
                path_rtt = self._rtt_lookup(source.pop.code, target_pop.code)
                for size in PAPER_PROBE_SIZES:
                    self._issue(source, target_pop, address, path_rtt, size)

    def _issue(
        self,
        source: _ProbeSource,
        target_pop: PoP,
        address: IPv4Address,
        path_rtt: float,
        size: int,
    ) -> None:
        probe = ProbeResult(
            source_pop=source.pop.code,
            destination_pop=target_pop.code,
            size_bytes=size,
            path_rtt=path_rtt,
            transfer=None,  # type: ignore[arg-type] - set immediately below
        )
        self._m_issued.inc()
        histogram = self._metrics.histogram(
            "probe_completion_time",
            bucket=rtt_bucket(path_rtt),
            size=f"{size // 1000}KB",
        )
        span = self._spans.begin(
            self._sim.now,
            f"probe {source.pop.code}->{target_pop.code} {size // 1000}KB",
            "probe",
            source.client.host.name,
            arm=self.arm,
            src_pop=source.pop.code,
            dst_pop=target_pop.code,
            size=size,
            client=str(source.client.host.address),
            dest=str(address),
            bucket=rtt_bucket(path_rtt),
        ) if self._obs_on else None

        def on_complete(result: TransferResult) -> None:
            if result.completed:
                histogram.observe(result.total_time)
                if self._obs_on:
                    # SLO tap: fleet-wide completion latency, windowed by
                    # the probe_latency_p90 signal.
                    self._tsdb.record(
                        result.completed_at,
                        self._tsdb_source,
                        "probe_latency",
                        result.total_time,
                    )
            else:
                self._m_failed.inc()
            if span is not None:
                closing: dict[str, object] = {
                    "completed": result.completed,
                    "new_connection": result.new_connection,
                    "initial_cwnd": result.initial_cwnd,
                    "cwnd_source": result.cwnd_source,
                    "client_port": result.local_port,
                }
                if not result.completed:
                    closing["failed"] = result.failed_reason
                self._spans.end(span, self._sim.now, **closing)

        probe.transfer = source.client.fetch(address, size, on_complete=on_complete)
        self.results.append(probe)

    def _close_idle(self) -> None:
        for source in self._sources:
            source.client.close_idle_connections()

    # ------------------------------------------------------------------
    # analysis accessors
    # ------------------------------------------------------------------

    def completed_results(self, **filters) -> list[ProbeResult]:
        """Completed probes filtered by size / RTT bucket / source."""
        return filter_probe_results(self.results, **filters)

    def completion_times(self, **filters) -> list[float]:
        """Total transfer times of the matching completed probes."""
        return [probe.total_time for probe in self.completed_results(**filters)]

    def result_set(self) -> ProbeResultSet:
        """Detach the measurements into a picklable result set."""
        return ProbeResultSet(
            results=list(self.results), rounds_issued=self.rounds_issued
        )

    def __repr__(self) -> str:
        return (
            f"<ProbeFleet sources={len(self._sources)} targets={len(self._targets)} "
            f"results={len(self.results)}>"
        )
