"""Mean-field background traffic: 10^6 open flows without 10^6 sockets.

:class:`FluidTraffic` is the hybrid engine's cdn-side half: it carries
whole *populations* of background TCP flows as analytic cwnd
distributions (:class:`~repro.sim.fluid.FluidPopulation`) and only
touches the packet world through two narrow couplings:

* **link pressure** — each population's aggregate send rate is applied
  to the directional :class:`~repro.net.link.Link` its data crosses
  (``link.set_fluid_load``), so packet-granular flows sharing the trunk
  serialize against the residual capacity;
* **loss feedback** — each step reads the link's parametric loss model
  (``mean_loss_rate``) plus a congestion term when combined packet +
  fluid offered load exceeds capacity, EWMA-smoothed, and feeds it back
  into the halving dynamics.  A downed link drives the cohort's windows
  to the floor, exactly like a packet flow timing out.

Populations register per (source host, destination address) and appear
in that host's ``ss`` polls as synthesized socket snapshots
(``host.fluid_sources``), so the Riptide agent, EWMA learner, safety
guard and :class:`~repro.cdn.monitors.CwndSampler` all observe fluid
cohorts without a single code change.  Crucially the feedback loop is
closed: new fluid arrivals enter at ``host.initcwnd_for(remote)``, so a
Riptide-installed route jump-starts the background population just as
it jump-starts real connections.

The engine steps on a coarse cadence (default 250 ms) as one sim event
per step, independent of flow count — a million open flows cost the
same handful of histogram updates as a thousand.  Within a tick each
distinct cohort state is stepped once.  Every cohort carries a
:attr:`~repro.sim.fluid.FluidPopulation.state_id` naming its parameters
and state — cohorts registered alike share one from the start — and a
cohort whose ``(state id, loss rate, entry-window bin)`` equals that of
one already stepped this tick (the A->B and B->A cohorts of a symmetric
mesh, until load, a fault or a route splits them) copies that cohort's
result and id, bit for bit what its own step would have left.  The step
reads the entry window only through its histogram bin, so twins whose
routes differ inside one bin keep sharing.

The per-tick work outside the steps is kept to what changed: a cohort's
entry window is re-resolved only when its host's route table object or
:attr:`~repro.linux.route.RouteTable.version` moved, or while the host
has an ``initcwnd_hook`` (a hook answers from state the engine cannot
watch); ``ss`` synthesis samples windows once per ``(state id, count)``
per tick and ages once per ``(count, created_at, churn)`` per poll.
"""

from __future__ import annotations

from repro.linux.host import Host
from repro.linux.route import RouteTable
from repro.net.addresses import IPv4Address
from repro.net.link import Link
from repro.net.network import INTRA_ZONE_DELAY, Network
from repro.sim.fluid import MAX_WINDOW, FluidConfig, FluidPopulation
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicProcess
from repro.tcp.socket import SocketStats, TcpState

#: Destination port stamped on synthesized snapshots (the transfer
#: service port, so fluid flows look like background fetch traffic).
FLUID_REMOTE_PORT = 8080

#: Base of the synthetic local-port range (above the ephemeral range
#: real sockets draw from, so ports never collide in ss output).
_FLUID_PORT_BASE = 50000

#: Hard cap on the congestion loss term (beyond this AIMD is dead anyway).
_MAX_LOSS_RATE = 0.5

#: EWMA weight of the newest per-link loss estimate (stability of the
#: congestion feedback loop; 1.0 = no smoothing).
_LOSS_SMOOTHING = 0.5

#: Synthetic ``ss`` snapshots generated per population per poll.
SS_SAMPLES = 8


class _HostFluidSource:
    """Adapter presenting one host's populations as an ``ss`` source.

    It also stamps the host's routing the cohorts' cached entry windows
    were resolved under: the route table object and its version.
    """

    __slots__ = ("_engine", "_host", "route_table", "route_version")

    def __init__(self, engine: "FluidTraffic", host: Host) -> None:
        self._engine = engine
        self._host = host
        self.route_table: RouteTable | None = None
        self.route_version = -1

    def socket_stats(self) -> list[SocketStats]:
        return self._engine.socket_stats_for(self._host)


class _LinkState:
    """Per-link coupling state: load aggregation + smoothed loss."""

    __slots__ = (
        "link", "populations", "smoothed_loss", "last_bytes_offered",
    )

    def __init__(self, link: Link) -> None:
        self.link = link
        self.populations: list[FluidPopulation] = []
        self.smoothed_loss = link.effective_loss_model.mean_loss_rate()
        self.last_bytes_offered = link.stats.bytes_offered


class FluidTraffic:
    """The cluster-wide mean-field background-traffic engine."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: FluidConfig | None = None,
    ) -> None:
        self._sim = sim
        self._network = network
        self.config = config if config is not None else FluidConfig()
        self._populations: list[FluidPopulation] = []
        self._pop_host: list[Host] = []
        self._pop_remote: list[IPv4Address] = []
        self._pop_link: list[_LinkState | None] = []
        self._pop_port_base: list[int] = []
        # Each cohort's entry window and its histogram bin, as last
        # resolved (see ``_resolve_entries``).
        self._pop_entry: list[int] = []
        self._pop_entry_bin: list[int] = []
        # step_key -> state id for the cohorts registered since the last
        # tick; a tick re-mints every id, so it starts afresh.
        self._interned: dict[tuple[object, ...], int] = {}
        # (state id, sample count) -> sampled windows, for this tick.
        self._sampled: dict[tuple[int, int], list[int]] = {}
        self._by_host: dict[IPv4Address, list[int]] = {}
        self._link_states: list[_LinkState] = []
        self._link_index: dict[str, _LinkState] = {}
        self._sources: dict[IPv4Address, _HostFluidSource] = {}
        self._process = PeriodicProcess(
            sim, self.config.cadence, self._step, name="fluid-traffic"
        )
        self.steps = 0
        metrics = sim.obs.metrics
        self._m_steps = metrics.counter("fluid_steps")
        self._g_flows = metrics.gauge("fluid_flows_open")
        self._g_offered = metrics.gauge("fluid_offered_bps")
        self._g_mean_cwnd = metrics.gauge("fluid_mean_cwnd")

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def add_population(
        self,
        host: Host,
        remote: IPv4Address,
        target_flows: float,
        growth_segments_per_sec: float | None = None,
        send_segments_per_flow_per_sec: float | None = None,
        churn_per_flow_per_sec: float = 0.0,
        is_client: bool = False,
    ) -> FluidPopulation:
        """Register a background cohort from ``host`` toward ``remote``.

        The cohort's data crosses the directional trunk from the host's
        zone to the remote's zone (both must be registered; same-zone
        cohorts are uncoupled — LAN paths have no interesting loss).
        New flows enter at whatever initial window the host's route
        table currently resolves for ``remote``.
        """
        src_zone = self._network.zone_of(host.address)
        dst_zone = self._network.zone_of(remote)
        if src_zone is None or dst_zone is None:
            unresolved = host.address if src_zone is None else remote
            raise ValueError(
                f"address {unresolved} is in no registered zone; fluid "
                "populations need resolvable endpoints to find their trunk"
            )
        link: Link | None = None
        if src_zone != dst_zone:
            link = self._network.link_from(src_zone, dst_zone)
            if link is None:
                raise ValueError(
                    f"no trunk from zone {src_zone} to zone {dst_zone} "
                    f"for fluid population {host.name}->{remote}"
                )
        if link is not None:
            rtt = 2.0 * (link.propagation_delay + link.extra_delay)
        else:
            rtt = 2.0 * INTRA_ZONE_DELAY
        entry_window = host.initcwnd_for(remote)
        index = len(self._populations)
        population = FluidPopulation(
            name=f"{host.name}->{remote}",
            rtt=rtt,
            target_flows=target_flows,
            entry_window=entry_window,
            bin_width=self.config.bin_width,
            growth_segments_per_sec=growth_segments_per_sec,
            send_segments_per_flow_per_sec=send_segments_per_flow_per_sec,
            churn_per_flow_per_sec=churn_per_flow_per_sec,
            mss=host.config.mss,
            created_at=self._sim.now,
            is_client=is_client,
        )
        population.intern_state(self._interned)
        self._populations.append(population)
        self._pop_host.append(host)
        self._pop_remote.append(remote)
        self._pop_port_base.append(_FLUID_PORT_BASE + index * SS_SAMPLES)
        self._pop_entry.append(entry_window)
        self._pop_entry_bin.append(
            population.distribution.window_to_bin(entry_window)
        )
        link_state: _LinkState | None = None
        if link is not None:
            link_state = self._link_index.get(link.name)
            if link_state is None:
                link_state = _LinkState(link)
                self._link_states.append(link_state)
                self._link_index[link.name] = link_state
            link_state.populations.append(population)
        self._pop_link.append(link_state)
        host_key = host.address
        if host_key not in self._by_host:
            self._by_host[host_key] = []
            source = _HostFluidSource(self, host)
            self._sources[host_key] = source
            host.fluid_sources.append(source)
        self._by_host[host_key].append(index)
        return population

    @property
    def populations(self) -> list[FluidPopulation]:
        return list(self._populations)

    @property
    def running(self) -> bool:
        return self._process.running

    def start(self, initial_delay: float | None = None) -> None:
        self._process.start(initial_delay=initial_delay)

    def stop(self) -> None:
        self._process.stop()
        # Release the pressure so packet flows get the trunks back.
        for state in self._link_states:
            state.link.set_fluid_load(0.0)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    #
    # Float totals here are explicit left-to-right loops from the integer
    # 0, which is what ``sum`` computes through 3.11.  From 3.12 ``sum``
    # is compensated; these feed serialization times and exported gauges,
    # which must hold the same bits on every interpreter.

    def total_flows(self) -> float:
        total: float = 0
        for population in self._populations:
            total += population.flows
        return total

    def total_offered_bps(self) -> float:
        total: float = 0
        for population in self._populations:
            total += population.offered_bps()
        return total

    def mean_window(self) -> float:
        """Flow-weighted mean congestion window across all cohorts."""
        flows = self.total_flows()
        if flows <= 0.0:
            return 0.0
        weighted: float = 0
        for population in self._populations:
            weighted += population.window_total
        return weighted / flows

    # ------------------------------------------------------------------
    # entry windows
    # ------------------------------------------------------------------

    def _refresh_entries(self, source: _HostFluidSource) -> None:
        """Re-resolve the entry windows of ``source``'s cohorts if its
        host's routing may have changed since they were resolved."""
        host = source._host
        table = host.route_table
        if (
            host.initcwnd_hook is not None
            or table is not source.route_table
            or table.version != source.route_version
        ):
            self._resolve_entries(source)

    def _resolve_entries(self, source: _HostFluidSource) -> None:
        """Resolve the entry windows of ``source``'s cohorts and stamp
        the routing they were resolved under.  A hook's answers leave no
        stamp: once it is removed, the route table's must be read again."""
        host = source._host
        table = host.route_table if host.initcwnd_hook is None else None
        entries = self._pop_entry
        bins = self._pop_entry_bin
        populations = self._populations
        remotes = self._pop_remote
        for index in self._by_host[host.address]:
            entry = host.initcwnd_for(remotes[index])
            entries[index] = entry
            bins[index] = populations[index].distribution.window_to_bin(entry)
        source.route_table = table
        source.route_version = host.route_table.version

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def _step(self) -> None:
        dt = self.config.cadence
        # Pass 1: refresh each link's loss estimate from what the *last*
        # interval actually carried (packet bytes observed on the link
        # plus the fluid load it was charged with), then re-apply the
        # new fluid pressure for the coming interval.
        for state in self._link_states:
            link = state.link
            if not link.up:
                state.smoothed_loss = 1.0
                state.last_bytes_offered = link.stats.bytes_offered
                link.set_fluid_load(0.0)
                continue
            capacity = link.bandwidth_bps * link.bandwidth_scale
            offered = link.stats.bytes_offered
            packet_bps = (offered - state.last_bytes_offered) * 8.0 / dt
            state.last_bytes_offered = offered
            fluid_bps: float = 0
            for population in state.populations:
                fluid_bps += population.offered
            total_bps = packet_bps + fluid_bps
            congestion = 0.0
            if total_bps > capacity:
                congestion = (total_bps - capacity) / total_bps
            raw = link.effective_loss_model.mean_loss_rate() + congestion
            if raw > _MAX_LOSS_RATE:
                raw = _MAX_LOSS_RATE
            state.smoothed_loss = (
                state.smoothed_loss + _LOSS_SMOOTHING * (raw - state.smoothed_loss)
            )
            link.set_fluid_load(fluid_bps)
        # Pass 2: advance every cohort against its link's loss rate,
        # refilling churned-out flows at the currently-routed initial
        # window (the Riptide feedback edge).  A cohort whose state id,
        # loss and entry bin match one already stepped this tick copies
        # that result: same state and inputs, same bits.  The memo holds
        # one entry per distinct cohort state and dies with the tick.
        # The gauge totals accumulate in population order, as the
        # aggregates' own loops would, over the totals the steps stored.
        for source in self._sources.values():
            self._refresh_entries(source)
        self._interned = {}
        self._sampled = {}
        entries = self._pop_entry
        entry_bins = self._pop_entry_bin
        pop_link = self._pop_link
        stepped: dict[tuple[int, float, int], FluidPopulation] = {}
        gauges = self._sim.obs.enabled
        flows: float = 0
        offered: float = 0
        weighted: float = 0
        for index, population in enumerate(self._populations):
            link_state = pop_link[index]
            loss = (
                link_state.smoothed_loss if link_state is not None else 0.0
            )
            key = (population.state_id, loss, entry_bins[index])
            twin = stepped.get(key)
            if twin is None:
                population.step(dt, loss, entries[index])
                stepped[key] = population
            else:
                population.adopt_step(twin)
            if gauges:
                dist = population.distribution
                flows += dist.flows
                offered += population.offered
                weighted += population.window_total
        self.steps += 1
        self._m_steps.inc()
        if gauges:
            self._g_flows.set(flows)
            self._g_offered.set(offered)
            self._g_mean_cwnd.set(weighted / flows if flows > 0.0 else 0.0)

    # ------------------------------------------------------------------
    # ss synthesis
    # ------------------------------------------------------------------

    def socket_stats_for(self, host: Host) -> list[SocketStats]:
        """Synthesized ``ss`` snapshots for every cohort on ``host``.

        Each population contributes snapshots at evenly spaced quantiles
        of its cwnd distribution — ``min(SS_SAMPLES, round(flows))`` of
        them, so a two-flow cohort weighs like two sockets in the
        learner's average (matching the packet arm) while a million-flow
        cohort still costs only ``SS_SAMPLES`` rows.
        Cumulative sent/retransmitted counters split evenly across the
        samples so the safety guard's per-poll deltas reflect the
        cohort's true loss rate.  Deterministic: same state, same
        snapshots, so windows are sampled once per state id and sample
        count in a tick, and ages once per count, creation time and
        churn rate in a poll.
        """
        indices = self._by_host.get(host.address)
        if not indices:
            return []
        self._refresh_entries(self._sources[host.address])
        entries = self._pop_entry
        sampled = self._sampled
        aged: dict[tuple[int, float, float], list[float]] = {}
        now = self._sim.now
        max_samples = SS_SAMPLES
        ssthresh = float(MAX_WINDOW)
        established = TcpState.ESTABLISHED
        snapshots: list[SocketStats] = []
        for index in indices:
            population = self._populations[index]
            if population.flows <= 0.0:
                continue
            count = min(max_samples, max(1, round(population.flows)))
            remote = self._pop_remote[index]
            port_base = self._pop_port_base[index]
            windows_key = (population.state_id, count)
            windows = sampled.get(windows_key)
            if windows is None:
                windows = sampled[windows_key] = (
                    population.distribution.sample_windows(count)
                )
            ages_key = (
                count, population.created_at, population.churn_per_flow_per_sec
            )
            ages = aged.get(ages_key)
            if ages is None:
                ages = aged[ages_key] = population.sample_ages(count, now)
            sent_share = int(population.segments_sent_total / count)
            retx_share = int(population.segments_retx_total / count)
            acked_share = int(population.bytes_acked_total / count) + 1
            entry = entries[index]
            rtt = population.rtt
            is_client = population.is_client
            for i in range(count):
                created = now - ages[i]
                # Positional, in SocketStats field order: a keyword call
                # costs a name match per field, eight rows per cohort.
                snapshots.append(
                    SocketStats(
                        port_base + i,  # local_port
                        remote,
                        FLUID_REMOTE_PORT,
                        established,
                        windows[i],  # cwnd
                        ssthresh,
                        entry,  # initial_cwnd
                        rtt,  # srtt
                        acked_share,  # bytes_acked
                        0,  # bytes_received
                        sent_share,  # segments_sent
                        retx_share,  # segments_retransmitted
                        created,  # created_at
                        created,  # established_at
                        now,  # last_activity_at
                        is_client,
                    )
                )
        return snapshots

    def __repr__(self) -> str:
        return (
            f"<FluidTraffic populations={len(self._populations)} "
            f"flows={self.total_flows():.0f} steps={self.steps} "
            f"running={self.running}>"
        )
