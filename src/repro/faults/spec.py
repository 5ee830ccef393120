"""Typed, declarative fault specifications.

A fault is data, not code: *what* breaks, *when* (seconds after the
schedule is armed) and *for how long*.  :class:`FaultSchedule` bundles
specs into one validated, describable timeline that
:class:`~repro.faults.engine.FaultInjector` executes on the simulator
clock.  Times are relative to arm time so the same schedule drops onto
any arm of a paired experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator
from typing import ClassVar

from repro.linux.ss_tool import SS_FAULT_MODES

#: Seconds after an :class:`AgentCrash` that its agents restart.
AGENT_RESTART_AFTER = 5.0


class FaultSpecError(ValueError):
    """A fault specification that cannot be executed."""


def _check_at(at: float) -> None:
    if at < 0:
        raise FaultSpecError(f"fault time must be >= 0, got {at}")


def _check_duration(duration: float) -> None:
    if duration <= 0:
        raise FaultSpecError(f"fault duration must be positive, got {duration}")


class FaultSpec:
    """Base class; concrete specs declare their own fields.

    Every spec has ``at`` (seconds after arm) and most have ``duration``
    (seconds the fault stays active before it is cleared).
    """

    kind: ClassVar[str] = "fault"

    @property
    def clear_at(self) -> float | None:
        """When the fault is cleared, relative to arm; None = never."""
        duration = getattr(self, "duration", None)
        at = getattr(self, "at", 0.0)
        return None if duration is None else at + duration

    def describe(self) -> str:  # pragma: no cover - overridden
        return self.kind


@dataclass(frozen=True, eq=False)
class LinkFlap(FaultSpec):
    """Take the trunk between two PoPs fully down, then back up."""

    kind: ClassVar[str] = "link_flap"

    pop_a: str
    pop_b: str
    at: float
    duration: float

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)
        if self.pop_a == self.pop_b:
            raise FaultSpecError(f"link endpoints must differ, got {self.pop_a}")

    def describe(self) -> str:
        return (
            f"link_flap {self.pop_a}<->{self.pop_b} down for {self.duration:g}s"
        )


@dataclass(frozen=True, eq=False)
class LinkDegrade(FaultSpec):
    """Shrink a trunk's bandwidth and/or stretch its latency for a window."""

    kind: ClassVar[str] = "link_degrade"

    pop_a: str
    pop_b: str
    at: float
    duration: float
    #: Multiplier on the trunk's bandwidth, in (0, 1].
    bandwidth_scale: float = 1.0
    #: Seconds added to the trunk's one-way propagation delay.
    extra_delay: float = 0.0

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)
        if self.pop_a == self.pop_b:
            raise FaultSpecError(f"link endpoints must differ, got {self.pop_a}")
        if not 0.0 < self.bandwidth_scale <= 1.0:
            raise FaultSpecError(
                f"bandwidth_scale must be in (0, 1], got {self.bandwidth_scale}"
            )
        if not self.extra_delay >= 0:
            raise FaultSpecError(
                f"extra_delay must be >= 0, got {self.extra_delay}"
            )
        if self.bandwidth_scale == 1.0 and self.extra_delay == 0.0:
            raise FaultSpecError("link_degrade that degrades nothing")

    def describe(self) -> str:
        parts = []
        if self.bandwidth_scale < 1.0:
            parts.append(f"bw x{self.bandwidth_scale:g}")
        if self.extra_delay > 0.0:
            parts.append(f"+{self.extra_delay * 1000:g}ms")
        return (
            f"link_degrade {self.pop_a}<->{self.pop_b} "
            f"{' '.join(parts)} for {self.duration:g}s"
        )


@dataclass(frozen=True, eq=False)
class LossStorm(FaultSpec):
    """Override loss on every trunk touching a PoP for a window.

    The storm drives a :class:`~repro.net.loss.GilbertElliottLoss` channel
    whose stationary loss rate matches ``loss_probability`` (correlated
    WAN bursts).
    """

    kind: ClassVar[str] = "loss_storm"

    pop: str
    at: float
    duration: float
    #: Average packet-loss rate during the storm.
    loss_probability: float = 0.25

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)
        if not 0.0 < self.loss_probability < 1.0:
            raise FaultSpecError(
                f"loss_probability must be in (0, 1), got {self.loss_probability}"
            )

    def describe(self) -> str:
        return (
            f"loss_storm at {self.pop} (bursty "
            f"p={self.loss_probability:g}) for {self.duration:g}s"
        )


@dataclass(frozen=True, eq=False)
class PopPartition(FaultSpec):
    """Sever every trunk touching a PoP — the PoP drops off the WAN."""

    kind: ClassVar[str] = "pop_partition"

    pop: str
    at: float
    duration: float

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)

    def describe(self) -> str:
        return f"pop_partition {self.pop} isolated for {self.duration:g}s"


@dataclass(frozen=True, eq=False)
class SsFault(FaultSpec):
    """Break the ``ss`` surface of every host in a PoP for a window.

    ``mode`` picks the failure flavour (see
    :data:`repro.linux.ss_tool.SS_FAULT_MODES`): ``error`` raises,
    ``empty`` returns nothing, ``stale`` replays the last good snapshot,
    ``partial`` drops half the sockets.
    """

    kind: ClassVar[str] = "ss_fault"

    pop: str
    at: float
    duration: float
    mode: str = "error"

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)
        if self.mode not in SS_FAULT_MODES:
            raise FaultSpecError(
                f"unknown ss fault mode {self.mode!r}; expected one of "
                f"{', '.join(SS_FAULT_MODES)}"
            )

    def describe(self) -> str:
        return f"ss_fault {self.mode} at {self.pop} for {self.duration:g}s"


@dataclass(frozen=True, eq=False)
class IpToolFault(FaultSpec):
    """Make ``ip route`` mutations fail on every host in a PoP."""

    kind: ClassVar[str] = "ip_fault"

    pop: str
    at: float
    duration: float

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)

    def describe(self) -> str:
        return f"ip_fault at {self.pop} for {self.duration:g}s"


@dataclass(frozen=True, eq=False)
class AgentCrash(FaultSpec):
    """Kill every Riptide agent of a PoP; restart them
    ``AGENT_RESTART_AFTER`` seconds later.

    Only agents *running* at crash time are affected (and later
    restarted), so the schedule is safe to arm on a control arm where no
    agent was ever started.
    """

    kind: ClassVar[str] = "agent_crash"

    pop: str
    at: float

    def __post_init__(self) -> None:
        _check_at(self.at)

    @property
    def clear_at(self) -> float | None:
        return self.at + AGENT_RESTART_AFTER

    def describe(self) -> str:
        return f"agent_crash agents at {self.pop}, restart after {AGENT_RESTART_AFTER:g}s"


@dataclass(frozen=True, eq=False)
class PollJitter(FaultSpec):
    """Drift the poll loops of a PoP's agents (a loaded host).

    Each tick is delayed by a uniform draw from ``[0, amplitude]``
    seconds, taken from a named seeded stream — deterministic per seed.
    """

    kind: ClassVar[str] = "poll_jitter"

    pop: str
    at: float
    duration: float
    amplitude: float = 0.5

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)
        if self.amplitude <= 0:
            raise FaultSpecError(
                f"amplitude must be positive, got {self.amplitude}"
            )

    def describe(self) -> str:
        return (
            f"poll_jitter at {self.pop} (+0..{self.amplitude:g}s/tick) "
            f"for {self.duration:g}s"
        )


@dataclass(frozen=True, eq=False)
class FaultSchedule:
    """A validated bundle of fault specs, executable by the injector."""

    specs: tuple[FaultSpec, ...]

    def __post_init__(self) -> None:
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise FaultSpecError(
                    f"schedule entries must be FaultSpecs, got {spec!r}"
                )
            if type(spec) is FaultSpec:
                raise FaultSpecError(
                    "schedule entries must be concrete fault specs"
                )

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    @property
    def end_time(self) -> float:
        """Relative time after which no fault remains scheduled to fire.

        Faults that never clear contribute their injection time only.
        """
        end = 0.0
        for spec in self.specs:
            clear = spec.clear_at
            end = max(end, spec.at if clear is None else clear)
        return end

    def timeline(self) -> list[FaultSpec]:
        """Specs ordered by injection time (ties keep schedule order)."""
        return sorted(self.specs, key=lambda spec: spec.at)

    def describe(self) -> str:
        """A human-readable timeline, one fault per line."""
        lines = []
        for spec in self.timeline():
            lines.append(f"  t+{spec.at:>6.1f}s  {spec.describe()}")
        return "\n".join(lines) if lines else "  (no faults)"

    def __repr__(self) -> str:
        return f"<FaultSchedule specs={len(self.specs)} end={self.end_time:g}s>"
