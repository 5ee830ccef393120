"""The Riptide agent (Algorithm 1).

One agent runs per host, exactly as the paper's single Python script runs
per server:

.. code-block:: text

    while Running do
        observed table   <- current CWND for all connections      (ss)
        grouped windows  <- observed table grouped by destination
        for group in grouped windows do
            average <- average of all current windows             (combiner)
            final   <- moving average with history                (history)
            Init_CWND to destination <- final                     (ip route)
        wait for i_u seconds

plus the TTL sweep: entries that go unrefreshed for ``t`` seconds lose
their route, restoring the kernel default of 10.  ``tests/core/
test_algorithm1_spec.py`` states this loop as one pure function.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.core.advisory import Advisory, AdvisoryController
from repro.core.combiners import Observation
from repro.core.config import RiptideConfig
from repro.core.granularity import DestinationGrouper
from repro.core.guard import HOLD_SECONDS, PathHealth, SafetyGuard
from repro.core.observed import LearnedTable
from repro.linux.errors import ToolError
from repro.linux.host import Host
from repro.net.addresses import IPv4Address, Prefix
from repro.obs.span import Span
from repro.obs.trace import EventType
from repro.policy.base import WindowPolicy, finalize_window
from repro.policy.registry import make_policy
from repro.sim.process import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.audit import Auditor

#: Resilience: retries of a failed tool command (``ip route``) before the
#: ladder gives up; the next poll tick still self-heals.
TOOL_RETRY_LIMIT = 3
#: Seconds before the first retry; doubles per attempt.
TOOL_RETRY_BACKOFF = 0.5


class AgentStats:
    """Operational counters for one agent."""

    __slots__ = (
        "polls", "connections_observed", "routes_installed", "routes_withdrawn", "routes_expired",
        "poll_failures", "tool_errors", "tool_retries", "guard_trips", "crashes",
    )

    def __init__(self) -> None:
        self.polls = 0
        self.connections_observed = 0
        self.routes_installed = 0
        self.routes_withdrawn = 0
        self.routes_expired = 0
        #: Resilience counters: ``ss`` polls that failed outright, ``ip``
        #: commands that errored, scheduled retries of those commands,
        #: safety-guard withdrawals and process crashes.
        self.poll_failures = 0
        self.tool_errors = 0
        self.tool_retries = 0
        self.guard_trips = 0
        self.crashes = 0


class RiptideAgent:
    """One host's Riptide process."""

    def __init__(self, host: Host, config: RiptideConfig | None = None) -> None:
        self.host = host
        self.config = config if config is not None else RiptideConfig()
        self._policy: WindowPolicy = make_policy(self.config.policy, self.config)
        self._grouper = DestinationGrouper(self.config.granularity)
        self._learned = LearnedTable(self.config.ttl)
        self._advisories = AdvisoryController()
        self._guard = SafetyGuard() if self.config.safety_guard else None
        self._process = PeriodicProcess(
            host.sim, self.config.update_interval, self._tick, name="riptide"
        )
        self.stats = AgentStats()
        self.started_at: float | None = None
        #: Optional consistency auditor, run at the start of every tick.
        self.auditor: "Auditor | None" = None
        self._last_advisory_scale = 1.0

        obs = host.sim.obs
        self._trace = obs.trace
        self._obs_on = obs.enabled
        self._spans = obs.spans
        self._tsdb = obs.tsdb
        #: Per-destination (sent, retransmitted) cumulative baselines for
        #: the SLO tap — deltas per tick feed the windowed store.
        self._tap_prev: dict[Prefix, tuple[int, int]] = {}
        #: Open guard-hold spans by destination (begun at trip, ended at
        #: release/crash/stop) and the span of the poll tick in progress.
        self._guard_spans: dict[Prefix, Span] = {}
        self._poll_span: Span | None = None
        metrics = obs.metrics
        self._m_polls = metrics.counter("riptide_polls")
        self._m_observed = metrics.counter("riptide_connections_observed")
        self._m_installed = metrics.counter("riptide_routes_installed")
        self._m_withdrawn = metrics.counter("riptide_routes_withdrawn")
        self._m_expired = metrics.counter("riptide_routes_expired")
        self._m_clamp_min = metrics.counter("riptide_clamp_hits", bound="c_min")
        self._m_clamp_max = metrics.counter("riptide_clamp_hits", bound="c_max")
        self._m_poll_failures = metrics.counter("riptide_poll_failures")
        self._m_tool_errors = metrics.counter("riptide_tool_errors")
        self._m_tool_retries = metrics.counter("riptide_tool_retries")
        self._m_guard_trips = metrics.counter("riptide_guard_trips")
        self._m_crashes = metrics.counter("riptide_crashes")
        self._m_policy_decisions = metrics.counter(
            "riptide_policy_decisions", policy=self._policy.name
        )
        self._g_learned = metrics.gauge("riptide_learned_entries", host=host.name)
        self._h_poll_cost = metrics.histogram("riptide_poll_cost")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._process.running

    def start(self, initial_delay: float | None = None) -> None:
        """Begin the poll loop."""
        if self.started_at is None:
            self.started_at = self.host.sim.now
        self._process.start(initial_delay=initial_delay)

    def stop(self, remove_routes: bool = True) -> None:
        """Stop polling; optionally withdraw all installed routes.

        With ``remove_routes`` the learned table and the policy's state
        are cleared along with the routes: a stopped agent no longer has
        anything installed, so remembering the old windows would make a
        restarted agent skip reinstalling them (the learned table would
        claim the windows are already in effect while the route table has
        none of them).
        """
        self._process.stop()
        if remove_routes:
            for entry in self._learned.entries():
                if self._route_command(entry.destination, None):
                    self._record(
                        EventType.ROUTE_WITHDRAWN,
                        entry.destination,
                        window=entry.window,
                        reason="stop",
                    )
            self._reset("stop")

    def crash(self) -> None:
        """Kill the agent process abruptly — no cleanup, no goodbyes.

        Everything the *process* held in memory is gone: the learned
        table, history, advisories, guard holds and the retry ladders of
        failed ``ip`` commands.  The routes it installed SURVIVE — they
        live in the kernel FIB, not the process — so until a restarted
        agent relearns the paths, new connections keep using windows
        nobody is maintaining.  The restarted agent self-heals: a tick
        reinstalls whenever the actual route diverges from what it
        computes, and the TTL sweep collects destinations that never
        reappear.
        """
        was_running = self.running
        self._process.stop()
        self.stats.crashes += 1
        self._m_crashes.inc()
        self._trace.record(
            self.host.sim.now,
            EventType.AGENT_CRASHED,
            self.host.name,
            learned=len(self._learned),
            was_running=was_running,
        )
        self._advisories = AdvisoryController()
        self._last_advisory_scale = 1.0
        self._reset("crash")

    def _reset(self, ended_by: str) -> None:
        """Forget what a stop with route removal and a crash both lose:
        learned windows, policy history, guard holds and their spans."""
        now = self.host.sim.now
        self._learned.clear()
        self._policy.reset()
        if self._guard is not None:
            self._guard.reset()
        for span in self._guard_spans.values():
            self._spans.end(span, now, released=False, ended_by=ended_by)
        self._guard_spans.clear()
        self._g_learned.set(0)

    def set_poll_jitter(self, jitter: Callable[[], float] | None) -> None:
        """Fault injection: add per-tick drift to the poll loop."""
        self._process.set_jitter(jitter)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def learned_table(self) -> LearnedTable:
        return self._learned

    def learned_window_for(self, destination: Prefix) -> int | None:
        entry = self._learned.get(destination)
        return entry.window if entry is not None else None

    def installed_window(self, destination: Prefix) -> int | None:
        """The window *actually in effect* for ``destination`` right now.

        Reads the host's installation state (the route table here; the
        kernel hook's map in :class:`~repro.core.kernel_mode.
        KernelModeAgent`), not the learned table — the two can diverge,
        which is exactly what :class:`~repro.obs.audit.Auditor` checks.
        """
        entry = self.host.route_table.get(destination)
        return entry.initcwnd if entry is not None else None

    def attach_auditor(self, auditor: "Auditor") -> None:
        """Run ``auditor.check()`` at the start of every poll tick."""
        self.auditor = auditor

    @property
    def safety_guard(self) -> SafetyGuard | None:
        return self._guard

    # ------------------------------------------------------------------
    # operational advisories (Section V)
    # ------------------------------------------------------------------

    def advise_conservative(
        self, scale: float, duration: float, reason: str = ""
    ) -> Advisory:
        """Scale all computed windows by ``scale`` for ``duration`` seconds.

        The hook the paper proposes for higher-level signals such as an
        imminent load-balancing shift: new connections enter the network
        more cautiously while the advisory holds.
        """
        now = self.host.sim.now
        advisory = self._advisories.advise(scale, duration, now=now, reason=reason)
        self._trace.record(
            now,
            EventType.ADVISORY_START,
            self.host.name,
            scale=scale,
            until=advisory.until,
            reason=reason,
        )
        return advisory

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        now = self.host.sim.now
        self.stats.polls += 1
        self._m_polls.inc()
        self._poll_span = self._spans.begin(
            now, "agent poll", "agent", self.host.name
        ) if self._obs_on else None
        if self.auditor is not None:
            # Audit *before* the install pass: a divergence is observed
            # here once, then healed by this very tick's reinstall.
            self.auditor.check(now)
        advisory_scale = self._advisories.scale_at(now)
        if advisory_scale == 1.0 and self._last_advisory_scale < 1.0:
            self._trace.record(
                now, EventType.ADVISORY_END, self.host.name, reason="expired"
            )
        self._last_advisory_scale = advisory_scale
        if self._guard is not None:
            for destination in self._guard.release_expired(now):
                self._trace.record(
                    now,
                    EventType.GUARD_RELEASED,
                    self.host.name,
                    destination=str(destination),
                )
                self._spans.end(
                    self._guard_spans.pop(destination, None), now, released=True
                )
        installed_before = self.stats.routes_installed
        grouped, health = self._observe_and_group()
        observed = sum(map(len, grouped.values()))
        if self._obs_on and health:
            self._tap_health(health, now)
        # Deterministic despite the dict view: ``grouped`` preserves the
        # ss-snapshot row order, which is itself a pure function of the
        # run.  Sorting here would reorder installs/trace emission and
        # change pinned outputs for no correctness gain.
        for destination, observations in grouped.items():  # lint: ignore[DET002]
            if self._guard is not None:
                reason = self._guard.observe(destination, health[destination], now)
                if reason is not None:
                    self._guard_trip(destination, reason, now)
                    continue
                if self._guard.holding(destination, now):
                    # Tripped earlier this hold: the destination stays at
                    # the kernel default; no learning until release.
                    continue
            final = self._policy.decide(destination, observations, now)
            window, bound = finalize_window(self.config, final, advisory_scale)
            if bound == "c_max":
                self._m_clamp_max.inc()
            elif bound == "c_min":
                self._m_clamp_min.inc()
            self._m_policy_decisions.inc()
            previous = self._learned.get(destination)
            self._learned.record(destination, window, now)
            # Apply when the window changed — or when the remembered window
            # does not match what is actually installed (a route deleted out
            # from under us, a host reboot): trusting the learned table alone
            # would strand the divergence forever, since an unchanged window
            # skips this branch on every subsequent tick.
            if (
                previous is None
                or previous.window != window
                or self.installed_window(destination) != window
            ) and self._route_command(destination, window):
                self._record(
                    EventType.ROUTE_INSTALLED,
                    destination,
                    window=window,
                    previous=previous.window if previous is not None else None,
                )
        self._expire(now)
        self._g_learned.set(len(self._learned))
        # Poll cost: the work this tick performed — connections scanned
        # plus route commands issued — the in-simulation analogue of the
        # paper's "external program monitoring all open connections" load.
        installed = self.stats.routes_installed - installed_before
        self._h_poll_cost.observe(observed + installed)
        if self._poll_span is not None:
            self._spans.end(
                self._poll_span, self.host.sim.now, observed=observed, installed=installed
            )
            self._poll_span = None

    def _tap_health(self, health: dict[Prefix, PathHealth], now: float) -> None:
        """Feed per-destination traffic deltas to the windowed store.

        The SLO engine's ``retransmit_ratio`` signal: per poll tick, the
        change in cumulative segments sent/retransmitted toward each
        destination.  Socket churn can shrink the cumulative totals (a
        closed connection leaves the snapshot); such ticks only re-baseline
        — the same reset the SafetyGuard applies.  Read-only: recording
        never perturbs protocol behaviour or the seeded streams.
        """
        host_name = self.host.name
        # Snapshot-row order, a pure function of the run (see the decide
        # loop above): the only call site passes ``_observe_and_group``'s
        # ``health``, built in the same row order as ``grouped``.
        for destination, path in health.items():  # lint: ignore[DET002]
            sent = path.segments_sent
            retransmitted = path.segments_retransmitted
            previous = self._tap_prev.get(destination)
            self._tap_prev[destination] = (sent, retransmitted)
            if previous is None:
                continue
            delta_sent = sent - previous[0]
            delta_rexmit = retransmitted - previous[1]
            if delta_sent < 0 or delta_rexmit < 0:
                continue
            source = f"{host_name}|{destination}"
            self._tsdb.record(now, source, "dest_segments_sent", float(delta_sent))
            self._tsdb.record(
                now, source, "dest_segments_retransmitted", float(delta_rexmit)
            )

    def _observe_and_group(
        self,
    ) -> tuple[dict[Prefix, list[Observation]], dict[Prefix, PathHealth]]:
        """Poll ``ss``; group windows and path health by destination key.

        Resilience: a failed poll (``ss`` erroring outright) yields an
        empty observation set and the agent carries on — learned entries
        are simply not refreshed this tick, and the TTL sweep remains
        the backstop if the tool never recovers.  Partial output needs
        no special handling: whatever sockets *did* make it into the
        snapshot are used, the rest age toward their TTL.
        """
        try:
            snapshots = self.host.ss.tcp_info()
        except ToolError as error:
            self.stats.poll_failures += 1
            self._m_poll_failures.inc()
            self._trace.record(
                self.host.sim.now,
                EventType.TOOL_ERROR,
                self.host.name,
                tool="ss",
                error=str(error),
            )
            return {}, {}
        grouped: dict[Prefix, list[Observation]] = {}
        health: dict[Prefix, PathHealth] = {}
        track_health = self._guard is not None
        key_for = self._grouper.key_for
        # Rows arrive in runs of one remote (a cohort's samples share its
        # address object, a peer's sockets sit together), so the group is
        # looked up when the address *object* changes, not per row.  A run
        # that resumes later (A, B, A) finds its group again: keys keep
        # first-row insertion order, rows keep snapshot order.
        run_remote: IPv4Address | None = None
        for info in snapshots:
            remote = info.remote_address
            if remote is not run_remote:
                run_remote = remote
                key = key_for(remote)
                observations = grouped.get(key)
                if observations is None:
                    observations = grouped[key] = []
                    if track_health:
                        path = health[key] = PathHealth()
                elif track_health:
                    path = health[key]
            srtt = info.srtt
            observations.append(Observation(info.cwnd, info.bytes_acked, srtt))
            if track_health:
                path.add(info.segments_sent, info.segments_retransmitted, srtt)
        self.stats.connections_observed += len(snapshots)
        self._m_observed.inc(len(snapshots))
        return grouped, health

    def _guard_trip(self, destination: Prefix, reason: str, now: float) -> None:
        """Revert a hostile destination to the kernel default (IW10)."""
        assert self._guard is not None
        self.stats.guard_trips += 1
        self._m_guard_trips.inc()
        if self._obs_on:
            # SLO tap: one withdrawal event sample, summed per window by
            # the guard_withdrawal_rate signal.
            self._tsdb.record(now, self.host.name, "guard_trips", 1.0)
        entry = self._learned.remove(destination)
        window = entry.window if entry is not None else None
        self._policy.on_guard_trip(destination, reason, now)
        self._trace.record(
            now,
            EventType.GUARD_TRIPPED,
            self.host.name,
            destination=str(destination),
            reason=reason,
            window=window,
            hold=HOLD_SECONDS,
        )
        if self._obs_on:
            self._spans.end(self._guard_spans.pop(destination, None), now)
            span = self._spans.begin(
                now,
                f"guard-hold {destination}",
                "guard",
                self.host.name,
                parent=self._poll_span,
                destination=str(destination),
                reason=reason,
                window=window,
                hold=HOLD_SECONDS,
            )
            if span is not None:
                self._guard_spans[destination] = span
        # Withdraw whatever is actually installed — the learned entry
        # when there is one, but also a stale post-crash route the agent
        # no longer remembers learning.
        if (
            entry is not None or self.installed_window(destination) is not None
        ) and self._route_command(destination, None):
            self._record(
                EventType.ROUTE_WITHDRAWN, destination, window=window, reason="guard"
            )

    def _expire(self, now: float) -> None:
        for entry in self._learned.pop_expired(now):
            self._route_command(entry.destination, None)
            self._policy.forget(entry.destination)
            if self._guard is not None:
                self._guard.forget(entry.destination)
            self.stats.routes_expired += 1
            self._m_expired.inc()
            self._trace.record(
                now,
                EventType.ROUTE_EXPIRED,
                self.host.name,
                destination=str(entry.destination),
                window=entry.window,
            )

    # ------------------------------------------------------------------
    # the effect side: one command path for both ``ip`` verbs
    # ------------------------------------------------------------------

    def _apply_window(self, destination: Prefix, window: int | None) -> None:
        """Make ``window`` effective for new connections to ``destination``;
        ``None`` withdraws it, restoring the kernel default.

        The user-space implementation (this class) programs a route, the
        mechanism the paper deploys; a withdrawal of a route that is gone
        raises :class:`KeyError`.  :class:`~repro.core.kernel_mode.
        KernelModeAgent` overrides this with an in-kernel hook.
        """
        if window is None:
            self.host.ip.route_del(destination)
        else:
            self.host.ip.route_replace(destination, initcwnd=window)

    def _route_command(
        self, destination: Prefix, window: int | None, attempt: int = 0
    ) -> bool:
        """Issue one install (``window``) or withdrawal (``None``).

        Returns True when it took effect.  A withdrawal that finds no
        route (removed out from under us) has nothing left to do: a first
        command counts that as done, a retry does not.  A tool error
        climbs the retry ladder: rung ``attempt + 1`` runs after
        ``TOOL_RETRY_BACKOFF * 2**attempt`` seconds, for at most
        ``TOOL_RETRY_LIMIT`` retries; the next poll tick still self-heals.
        """
        try:
            self._apply_window(destination, window)
        except KeyError:
            return attempt == 0
        except ToolError as error:
            self.stats.tool_errors += 1
            self._m_tool_errors.inc()
            self._trace.record(
                self.host.sim.now,
                EventType.TOOL_ERROR,
                self.host.name,
                tool="ip",
                verb="del" if window is None else "replace",
                destination=str(destination),
                error=str(error),
            )
            if attempt < TOOL_RETRY_LIMIT:
                self.host.sim.schedule(
                    TOOL_RETRY_BACKOFF * (2.0 ** attempt),
                    self._retry,
                    destination,
                    window,
                    attempt + 1,
                    self.stats.crashes,
                )
            return False
        return True

    def _retry(
        self, destination: Prefix, window: int | None, attempt: int, crashes: int
    ) -> None:
        """Rung ``attempt`` of a failed command's retry ladder.

        ``crashes`` is ``stats.crashes`` when the ladder started: a crash
        since then killed the process the ladder belonged to.  An install
        ladder also ends once its window was superseded or expired, the
        agent stopped, or a later tick healed the route.  A withdraw
        ladder outlives :meth:`stop` (whose withdrawals it finishes) and
        ends once the destination is learned again.
        """
        entry = self._learned.get(destination)
        if window is None:
            ended = entry is not None
        else:
            ended = (
                entry is None or entry.window != window or not self.running
                or self.installed_window(destination) == window
            )
        if ended or crashes != self.stats.crashes:
            return
        self.stats.tool_retries += 1
        self._m_tool_retries.inc()
        if not self._route_command(destination, window, attempt):
            return
        if window is None:
            self._record(EventType.ROUTE_WITHDRAWN, destination, reason="retry")
        else:
            self._record(EventType.ROUTE_INSTALLED, destination, window=window, retry=attempt)

    def _record(self, event: EventType, destination: Prefix, **fields: object) -> None:
        """Count and trace a route installed (by a tick or a retry) or
        withdrawn (by :meth:`stop`, a guard trip or a retry)."""
        if event is EventType.ROUTE_INSTALLED:
            self.stats.routes_installed += 1
            self._m_installed.inc()
        else:
            self.stats.routes_withdrawn += 1
            self._m_withdrawn.inc()
        self._trace.record(
            self.host.sim.now, event, self.host.name, destination=str(destination), **fields
        )

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"<RiptideAgent host={self.host.address} {state} "
            f"learned={len(self._learned)}>"
        )
