"""Declarative SLO engine with SRE-style multi-window burn-rate alerts.

The SafetyGuard makes *enforcement* decisions from raw loss/RTT signals;
this module adds the declarative *observability* tier above it: an
:class:`SloSpec` names a service-level indicator read from the windowed
time-series store (:mod:`repro.obs.tsdb`), an error budget, and a bad
threshold; a :class:`BurnRateRule` is the standard SRE multi-window
multi-burn-rate alert condition (fire when the budget burns at >= N x
the sustainable rate over *both* a long and a short lookback, so spikes
must persist and recoveries resolve quickly).

The engine is evaluated on a deterministic simulated-time cadence (see
``CdnCluster.start_slo``).  Each alert walks the Prometheus lifecycle —
``pending`` when the condition first holds, ``firing`` once it has held
for the rule's ``for_duration``, ``resolved`` when it clears — emitting
a trace event per transition, one span per firing interval (category
``"alert"``), and burn-rate metrics.  Episodes land in a bounded
:class:`AlertLog` whose ``merge_from`` renumbers dense ids exactly like
the span log, so parallel runs reproduce a serial run's alert report
byte-for-byte.

Sources are arm-qualified (``riptide:LHR-0|10.3.0.0/16``,
``control:probes``) and each cluster's engine only evaluates sources in
its own arm, which is what keeps serial shared-capture runs identical
to per-worker captures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.obs.bounded import BoundedLog
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.span import Span, SpanLog
from repro.obs.trace import EventType, TraceLog
from repro.obs.tsdb import WindowedStore

#: Aligned-window width (simulated seconds) for SLI derivations.
DEFAULT_SLO_WINDOW = 5.0

VALID_SIGNAL_KINDS = ("percentile", "last", "rate", "sum_ratio")

#: Percentile rank a ``percentile`` signal reads from a window.
SIGNAL_PERCENTILE = 90.0

_INACTIVE = "inactive"
_PENDING = "pending"
_FIRING = "firing"


def source_matches_arm(source: str, arm: str) -> bool:
    """Whether a tsdb/alert source belongs to an experiment arm.

    Arm labels prefix sources as ``label:rest`` (host names are already
    label-prefixed; fleet/agent taps follow the same convention).  The
    empty label matches only unqualified sources, so a serial run that
    captures two arms into one store never cross-reads.
    """
    if arm:
        return source == arm or source.startswith(arm + ":")
    return ":" not in source


@dataclass(frozen=True, slots=True, eq=False)
class SloSignal:
    """How to read one SLI value for one aligned window from the tsdb."""

    #: One of :data:`VALID_SIGNAL_KINDS`.
    kind: str
    series: str
    #: Denominator series, ``sum_ratio`` only.
    denominator: str = ""
    #: Minimum denominator sum before a ratio window is judged.
    min_count: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in VALID_SIGNAL_KINDS:
            raise ValueError(
                f"kind must be one of {VALID_SIGNAL_KINDS}, got {self.kind!r}"
            )
        if self.kind == "sum_ratio" and not self.denominator:
            raise ValueError("sum_ratio signals need a denominator series")
        if self.kind != "sum_ratio" and self.denominator:
            raise ValueError(f"denominator is only valid for sum_ratio, got {self.kind!r}")
        if self.min_count < 0.0:
            raise ValueError(f"min_count must be >= 0, got {self.min_count}")

    def value(
        self, tsdb: WindowedStore, source: str, index: int, window: float
    ) -> float | None:
        """The SLI value of one window; None when there is no signal."""
        if self.kind == "percentile":
            return tsdb.percentile(source, self.series, index, window, SIGNAL_PERCENTILE)
        if self.kind == "last":
            return tsdb.last(source, self.series, index, window)
        if self.kind == "rate":
            return tsdb.rate(source, self.series, index, window)
        return tsdb.sum_ratio(
            source, self.series, self.denominator, index, window, self.min_count
        )


@dataclass(frozen=True, slots=True, eq=False)
class SloSpec:
    """One service-level objective over a tsdb signal."""

    name: str
    description: str
    signal: SloSignal
    #: A window is *bad* when the signal rises above this value.
    threshold: float
    #: Error budget — the tolerated fraction of bad windows.
    objective: float = 0.05

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        if not 0.0 < self.objective <= 1.0:
            raise ValueError(f"objective must be in (0, 1], got {self.objective}")

    def window_is_bad(self, value: float) -> bool:
        return value > self.threshold


@dataclass(frozen=True, slots=True, eq=False)
class BurnRateRule:
    """One SRE multi-window multi-burn-rate alert condition."""

    severity: str
    #: Long lookback (simulated seconds) — spikes must persist this scale.
    long_window: float
    #: Short lookback — lets recoveries resolve quickly.
    short_window: float
    #: Fire when burn >= factor over *both* lookbacks.
    burn_factor: float
    #: Pending dwell before firing (0 fires on the first bad evaluation).
    for_duration: float = 0.0

    def __post_init__(self) -> None:
        if not self.severity:
            raise ValueError("severity must be non-empty")
        if self.short_window <= 0.0:
            raise ValueError(f"short_window must be > 0, got {self.short_window}")
        if self.long_window < self.short_window:
            raise ValueError(
                f"long_window must be >= short_window, got "
                f"{self.long_window} < {self.short_window}"
            )
        if self.burn_factor <= 0.0:
            raise ValueError(f"burn_factor must be > 0, got {self.burn_factor}")
        if self.for_duration < 0.0:
            raise ValueError(f"for_duration must be >= 0, got {self.for_duration}")


def default_slos() -> tuple[SloSpec, ...]:
    """The stock SLO zoo evaluated by chaos and tournament runs."""
    return (
        SloSpec(
            name="probe_latency_p90",
            description="Probe completion p90 stays under 1s",
            signal=SloSignal(kind="percentile", series="probe_latency"),
            threshold=1.0,
            objective=0.25,
        ),
        SloSpec(
            name="retransmit_ratio",
            description="Per-destination retransmit ratio stays under 5%",
            signal=SloSignal(
                kind="sum_ratio",
                series="dest_segments_retransmitted",
                denominator="dest_segments_sent",
                min_count=20.0,
            ),
            threshold=0.05,
            objective=0.10,
        ),
        SloSpec(
            name="guard_withdrawal_rate",
            description="SafetyGuard withdrawals are rare",
            signal=SloSignal(kind="rate", series="guard_trips"),
            threshold=0.0,
            objective=0.25,
        ),
        SloSpec(
            name="route_staleness",
            description="Learned routes are refreshed well inside their TTL",
            signal=SloSignal(kind="last", series="route_staleness"),
            threshold=45.0,
            objective=0.10,
        ),
    )


def default_burn_rules() -> tuple[BurnRateRule, ...]:
    """Stock page/ticket rule pair (Google SRE workbook shape, scaled
    to simulated chaos-run durations)."""
    return (
        BurnRateRule(
            severity="page", long_window=15.0, short_window=5.0, burn_factor=2.0
        ),
        BurnRateRule(
            severity="ticket",
            long_window=30.0,
            short_window=10.0,
            burn_factor=1.0,
            for_duration=5.0,
        ),
    )


class AlertEpisode:
    """One walk through the alert lifecycle for one (SLO, rule, source)."""

    __slots__ = (
        "alert_id", "slo", "severity", "source", "burn_factor", "long_window", "short_window",
        "pending_at", "firing_at", "resolved_at", "peak_burn",
    )

    def __init__(
        self,
        alert_id: int,
        slo: str,
        severity: str,
        source: str,
        burn_factor: float,
        long_window: float,
        short_window: float,
        pending_at: float,
    ) -> None:
        self.alert_id = alert_id
        self.slo = slo
        self.severity = severity
        self.source = source
        self.burn_factor = burn_factor
        self.long_window = long_window
        self.short_window = short_window
        self.pending_at = pending_at
        self.firing_at: float | None = None
        self.resolved_at: float | None = None
        self.peak_burn = 0.0

    @property
    def fired(self) -> bool:
        return self.firing_at is not None

    @property
    def resolved(self) -> bool:
        return self.firing_at is not None and self.resolved_at is not None

    def to_dict(self) -> dict[str, object]:
        return {
            "alert_id": self.alert_id,
            "slo": self.slo,
            "severity": self.severity,
            "source": self.source,
            "burn_factor": self.burn_factor,
            "long_window": self.long_window,
            "short_window": self.short_window,
            "pending_at": self.pending_at,
            "firing_at": self.firing_at,
            "resolved_at": self.resolved_at,
            "peak_burn": round(self.peak_burn, 6),
        }


class AlertLog(BoundedLog[AlertEpisode]):
    """All alert episodes of one run, bounded drop-newest, dense ids."""

    __slots__ = ()

    def begin(
        self,
        time: float,
        slo: str,
        severity: str,
        source: str,
        rule: BurnRateRule,
    ) -> AlertEpisode | None:
        """Open an episode at pending.  None past capacity (still counted)."""
        alert_id = self._claim()
        if alert_id is None:
            return None
        episode = AlertEpisode(
            alert_id=alert_id,
            slo=slo,
            severity=severity,
            source=source,
            burn_factor=rule.burn_factor,
            long_window=rule.long_window,
            short_window=rule.short_window,
            pending_at=time,
        )
        self._keep(episode)
        return episode

    def _renumber(self, item: AlertEpisode, offset: int) -> None:
        item.alert_id += offset

    def episodes(self, fired_only: bool = False) -> list[AlertEpisode]:
        """Retained episodes in begin order, optionally only fired ones."""
        return [episode for episode in self._items if episode.fired or not fired_only]

    @property
    def next_id(self) -> int:
        """Total episodes ever begun."""
        return self._recorded

    @property
    def fired_count(self) -> int:
        return sum(1 for e in self._items if e.fired)

    @property
    def resolved_count(self) -> int:
        return sum(1 for e in self._items if e.resolved)

    def __repr__(self) -> str:
        return (
            f"<AlertLog retained={len(self)}/{self.capacity} "
            f"begun={self._recorded} fired={self.fired_count} "
            f"resolved={self.resolved_count} dropped={self.dropped}>"
        )


class _AlertState:
    """Lifecycle state of one (SLO, rule, source)."""

    __slots__ = ("status", "pending_since", "episode", "span")

    def __init__(self) -> None:
        self.status = _INACTIVE
        self.pending_since = 0.0
        self.episode: AlertEpisode | None = None
        self.span: Span | None = None


class SloEngine:
    """Evaluates SLO specs against the tsdb on a deterministic cadence.

    Stateless with respect to the signals (burn rates are recomputed
    from the store every evaluation) and stateful only for the alert
    lifecycle.  Takes the stores explicitly rather than an
    :class:`~repro.obs.instrument.Instrumentation` to keep the import
    graph acyclic; ``CdnCluster.start_slo`` wires the live bundle in.
    """

    __slots__ = (
        "_tsdb",
        "_metrics",
        "_trace",
        "_spans",
        "_alerts",
        "_specs",
        "_rules",
        "_arm",
        "_states",
        "_m_evals",
        "_g_firing",
        "_burn_gauges",
        "_firing",
    )

    def __init__(
        self,
        tsdb: WindowedStore,
        metrics: MetricsRegistry,
        trace: TraceLog,
        spans: SpanLog,
        alerts: AlertLog,
        *,
        specs: tuple[SloSpec, ...],
        rules: tuple[BurnRateRule, ...],
        arm: str = "",
    ) -> None:
        self._tsdb = tsdb
        self._metrics = metrics
        self._trace = trace
        self._spans = spans
        self._alerts = alerts
        self._specs = specs
        self._rules = rules
        self._arm = arm
        self._states: dict[tuple[str, str, str], _AlertState] = {}
        self._m_evals = metrics.counter("slo_evaluations")
        self._g_firing = metrics.gauge("slo_alerts_firing")
        self._burn_gauges: dict[tuple[str, str, str], Gauge] = {}
        self._firing = 0

    def burn_rate(
        self, spec: SloSpec, source: str, now: float, lookback: float
    ) -> float | None:
        """Budget burn over the aligned windows intersecting a lookback.

        Burn 1.0 means the error budget is being spent exactly at the
        sustainable rate; None means no window in the lookback carried
        any signal (no opinion).
        """
        first = max(0, WindowedStore.window_index(now - lookback, DEFAULT_SLO_WINDOW))
        last = WindowedStore.window_index(now, DEFAULT_SLO_WINDOW)
        bad = 0
        judged = 0
        for index in range(first, last + 1):
            value = spec.signal.value(self._tsdb, source, index, DEFAULT_SLO_WINDOW)
            if value is None:
                continue
            judged += 1
            if spec.window_is_bad(value):
                bad += 1
        if judged == 0:
            return None
        return (bad / judged) / spec.objective

    def evaluate(self, now: float) -> None:
        """One deterministic evaluation pass over every spec and source."""
        self._m_evals.inc()
        for spec in self._specs:
            sources = self._tsdb.sources_for(spec.signal.series)
            for source in sources:
                if not source_matches_arm(source, self._arm):
                    continue
                for rule in self._rules:
                    self._evaluate_rule(spec, rule, source, now)
        self._g_firing.set(float(self._firing))

    def _evaluate_rule(
        self, spec: SloSpec, rule: BurnRateRule, source: str, now: float
    ) -> None:
        burn_long = self.burn_rate(spec, source, now, rule.long_window)
        burn_short = self.burn_rate(spec, source, now, rule.short_window)
        condition = (
            burn_long is not None
            and burn_short is not None
            and burn_long >= rule.burn_factor
            and burn_short >= rule.burn_factor
        )
        key = (spec.name, rule.severity, source)
        if burn_long is not None:
            gauge = self._burn_gauges.get(key)
            if gauge is None:
                gauge = self._metrics.gauge(
                    "slo_burn_rate",
                    slo=spec.name,
                    severity=rule.severity,
                    source=source,
                )
                self._burn_gauges[key] = gauge
            gauge.set(round(burn_long, 6))
        state = self._states.get(key)
        if state is None:
            if not condition:
                return
            state = _AlertState()
            self._states[key] = state
        if condition:
            assert burn_long is not None and burn_short is not None
            self._advance(spec, rule, source, state, now, burn_long, burn_short)
        else:
            self._retreat(spec, rule, source, state, now)

    def _advance(
        self,
        spec: SloSpec,
        rule: BurnRateRule,
        source: str,
        state: _AlertState,
        now: float,
        burn_long: float,
        burn_short: float,
    ) -> None:
        if state.status == _INACTIVE:
            state.status = _PENDING
            state.pending_since = now
            state.episode = self._alerts.begin(now, spec.name, rule.severity, source, rule)
            self._trace.record(
                now,
                EventType.ALERT_PENDING,
                source,
                slo=spec.name,
                severity=rule.severity,
                burn_long=round(burn_long, 6),
                burn_short=round(burn_short, 6),
            )
        if state.status == _PENDING and now - state.pending_since >= rule.for_duration:
            state.status = _FIRING
            self._firing += 1
            if state.episode is not None:
                state.episode.firing_at = now
            self._trace.record(
                now,
                EventType.ALERT_FIRING,
                source,
                slo=spec.name,
                severity=rule.severity,
                burn_long=round(burn_long, 6),
                burn_short=round(burn_short, 6),
            )
            state.span = self._spans.begin(
                now,
                f"alert {spec.name}",
                "alert",
                source,
                slo=spec.name,
                severity=rule.severity,
                burn_factor=rule.burn_factor,
            )
        if state.episode is not None:
            state.episode.peak_burn = max(
                state.episode.peak_burn, burn_long, burn_short
            )

    def _retreat(
        self,
        spec: SloSpec,
        rule: BurnRateRule,
        source: str,
        state: _AlertState,
        now: float,
    ) -> None:
        if state.status == _PENDING:
            # A pending alert that clears goes back to inactive silently
            # (the Prometheus lifecycle); the episode records the washout.
            if state.episode is not None:
                state.episode.resolved_at = now
        elif state.status == _FIRING:
            self._firing -= 1
            if state.episode is not None:
                state.episode.resolved_at = now
            self._trace.record(
                now,
                EventType.ALERT_RESOLVED,
                source,
                slo=spec.name,
                severity=rule.severity,
            )
            self._spans.end(state.span, now, resolved=True)
        state.status = _INACTIVE
        state.episode = None
        state.span = None


# ----------------------------------------------------------------------
# Alert report artifact (JSON + markdown)


def build_alert_report(alerts: AlertLog, experiment: str = "") -> dict[str, object]:
    """A deterministic, serializable summary of a run's alert activity:
    one row per default SLO, then every episode."""
    episodes = alerts.episodes()
    by_slo: list[dict[str, object]] = []
    for spec in default_slos():
        mine = [e for e in episodes if e.slo == spec.name]
        by_slo.append(
            {
                "slo": spec.name,
                "description": spec.description,
                "threshold": spec.threshold,
                "objective": spec.objective,
                "episodes": len(mine),
                "fired": sum(1 for e in mine if e.fired),
                "resolved": sum(1 for e in mine if e.resolved),
                "peak_burn": round(max((e.peak_burn for e in mine), default=0.0), 6),
            }
        )
    return {
        "experiment": experiment,
        "slos": by_slo,
        "episodes": [e.to_dict() for e in episodes],
        "counts": {
            "recorded": alerts.recorded,
            "retained": len(alerts),
            "dropped": alerts.dropped,
            "fired": alerts.fired_count,
            "resolved": alerts.resolved_count,
        },
    }


def alert_report_to_json(report: dict[str, object]) -> str:
    return json.dumps(report, indent=2) + "\n"


def alert_report_to_markdown(report: dict[str, object]) -> str:
    """The alert report as a markdown artifact."""
    lines = [f"# SLO alert report — {report['experiment'] or 'run'}", ""]
    lines.append("| SLO | episodes | fired | resolved | peak burn |")
    lines.append("|---|---|---|---|---|")
    slos = report["slos"]
    assert isinstance(slos, list)
    for row in slos:
        lines.append(
            f"| {row['slo']} | {row['episodes']} | {row['fired']} "
            f"| {row['resolved']} | {row['peak_burn']:.2f} |"
        )
    lines.append("")
    lines.append("## Episodes")
    lines.append("")
    episodes = report["episodes"]
    assert isinstance(episodes, list)
    if not episodes:
        lines.append("_No alerts._")
    else:
        lines.append(
            "| id | SLO | severity | source | pending | firing | resolved | peak burn |"
        )
        lines.append("|---|---|---|---|---|---|---|---|")
        for ep in episodes:
            firing = "-" if ep["firing_at"] is None else f"{ep['firing_at']:.1f}"
            resolved = "-" if ep["resolved_at"] is None else f"{ep['resolved_at']:.1f}"
            lines.append(
                f"| {ep['alert_id']} | {ep['slo']} | {ep['severity']} "
                f"| {ep['source']} | {ep['pending_at']:.1f} | {firing} "
                f"| {resolved} | {ep['peak_burn']:.2f} |"
            )
    lines.append("")
    return "\n".join(lines)
