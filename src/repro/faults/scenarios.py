"""Ready-made chaos scenarios over the evaluation topology.

Each scenario is a named recipe: the sub-topology to deploy, the probe
vantage, and a :class:`~repro.faults.spec.FaultSchedule` builder that
places faults at fractions of the run so the same recipe scales from a
CI smoke run to a long study.  The paired control-vs-Riptide harness
around them lives in :mod:`repro.experiments.chaos`; the claim under
test is the deployment-safety one — under injected faults, Riptide with
its resilience policies still beats or matches the IW10 control, rather
than amplifying the damage.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.faults.spec import (
    AgentCrash,
    FaultSchedule,
    IpToolFault,
    LinkDegrade,
    LinkFlap,
    LossStorm,
    PollJitter,
    PopPartition,
    SsFault,
)
from repro.records import Frozen


class ExpectedAlert(Frozen):
    """One SLO alert a chaos scenario is contractually expected to raise.

    The expectation is against the burn-rate engine's alert log for the
    ``riptide`` arm: at least one episode of the named SLO must reach firing;
    ``must_resolve`` additionally requires at least one fired episode to
    resolve before the run ends (the recovery half of the story — e.g.
    the guard hold quenching a retransmit storm).
    """

    __slots__ = ("slo", "must_resolve")

    slo: str
    must_resolve: bool

    def __init__(self, slo: str, must_resolve: bool = False) -> None:
        object.__setattr__(self, "slo", slo)
        object.__setattr__(self, "must_resolve", must_resolve)


class ChaosScenario(Frozen):
    """One named chaos recipe."""

    __slots__ = (
        "name", "description", "pop_codes", "source_pop", "target_pop", "build",
        "expected_alerts",
    )

    name: str
    description: str
    #: Sub-topology the scenario deploys (paper PoP codes).
    pop_codes: tuple[str, ...]
    #: PoP whose dedicated host issues the diagnostic probes.
    source_pop: str
    #: The PoP the headline faults hit — reports focus on paths to it.
    target_pop: str
    #: duration (seconds of probing) -> schedule, times relative to arm.
    build: Callable[[float], FaultSchedule]
    #: SLO alerts the scenario must raise (checked by the chaos harness
    #: and the ``repro alerts --check`` CI gate).
    expected_alerts: tuple[ExpectedAlert, ...]

    def __init__(
        self,
        name: str,
        description: str,
        pop_codes: tuple[str, ...],
        source_pop: str,
        target_pop: str,
        build: Callable[[float], FaultSchedule],
        expected_alerts: tuple[ExpectedAlert, ...] = (),
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "pop_codes", pop_codes)
        object.__setattr__(self, "source_pop", source_pop)
        object.__setattr__(self, "target_pop", target_pop)
        object.__setattr__(self, "build", build)
        object.__setattr__(self, "expected_alerts", expected_alerts)

    def describe(self, duration: float) -> str:
        """The scenario's fault timeline for a given run length."""
        return self.build(duration).describe()


def _lossy_agent_schedule(duration: float) -> FaultSchedule:
    """A loss storm on the learned path plus agent-side process faults.

    The storm hits every trunk touching the target PoP while probes are
    in flight: the safety guard must notice the retransmit spike and
    revert learned routes toward the storm to IW10.  Meanwhile the
    source PoP's agents suffer an ``ss`` blackout, a crash/restart and
    poll jitter — the resilience policies keep Algorithm 1 limping
    along instead of wedging.
    """
    return FaultSchedule(
        specs=(
            LossStorm(
                pop="JFK",
                at=0.25 * duration,
                duration=0.35 * duration,
                loss_probability=0.30,
            ),
            SsFault(
                pop="LHR",
                at=0.15 * duration,
                duration=0.10 * duration,
                mode="error",
            ),
            AgentCrash(pop="LHR", at=0.70 * duration),
            PollJitter(
                pop="AMS",
                at=0.10 * duration,
                duration=0.80 * duration,
                amplitude=0.4,
            ),
        )
    )


def _partition_schedule(duration: float) -> FaultSchedule:
    """A PoP falls off the WAN; a trunk flaps; another degrades.

    Probes toward the partitioned PoP simply fail while it is dark —
    for both arms equally.  The interesting question is the recovery:
    once the partition heals, Riptide's learned state (entries aged
    toward their TTL during the dark window) must not leave the paths
    worse than the IW10 control.
    """
    return FaultSchedule(
        specs=(
            PopPartition(
                pop="NRT", at=0.30 * duration, duration=0.25 * duration
            ),
            LinkFlap(
                pop_a="LHR",
                pop_b="JFK",
                at=0.60 * duration,
                duration=0.08 * duration,
            ),
            LinkDegrade(
                pop_a="LHR",
                pop_b="AMS",
                at=0.20 * duration,
                duration=0.40 * duration,
                bandwidth_scale=0.25,
                extra_delay=0.020,
            ),
        )
    )


def _flaky_tools_schedule(duration: float) -> FaultSchedule:
    """Every tool surface misbehaves at once; the network stays healthy.

    ``ip route`` rejects mutations (retry-with-backoff must converge
    once the window closes), ``ss`` serves stale and partial snapshots,
    and the poll loop drifts.  Control and Riptide see identical
    traffic; the arm comparison isolates whether degraded *tooling*
    alone can make Riptide do harm.
    """
    return FaultSchedule(
        specs=(
            IpToolFault(
                pop="LHR", at=0.20 * duration, duration=0.15 * duration
            ),
            SsFault(
                pop="LHR",
                at=0.45 * duration,
                duration=0.20 * duration,
                mode="stale",
            ),
            SsFault(
                pop="JFK",
                at=0.30 * duration,
                duration=0.25 * duration,
                mode="partial",
            ),
            PollJitter(
                pop="LHR",
                at=0.10 * duration,
                duration=0.80 * duration,
                amplitude=0.5,
            ),
        )
    )


#: Compact sub-topology shared by the chaos scenarios: the two vantage
#: PoPs of Section IV-B plus a metro-close neighbour each and one far
#: target, spanning the RTT buckets while staying CI-affordable.
_CHAOS_POP_CODES = ("LHR", "AMS", "JFK", "IAD", "NRT")

CHAOS_SCENARIOS: dict[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        ChaosScenario(
            name="chaos_lossy_agent",
            description=(
                "Bursty loss storm at JFK while LHR's agents suffer an ss "
                "blackout, a crash/restart and poll jitter; the safety "
                "guard must revert learned routes into the storm to IW10."
            ),
            pop_codes=_CHAOS_POP_CODES,
            source_pop="LHR",
            target_pop="JFK",
            build=_lossy_agent_schedule,
            # The storm must burn the retransmit budget (and the guard's
            # withdrawals must register), and both must resolve once the
            # storm clears and the hold quenches the path.
            expected_alerts=(
                ExpectedAlert("retransmit_ratio", must_resolve=True),
                ExpectedAlert("guard_withdrawal_rate", must_resolve=True),
            ),
        ),
        ChaosScenario(
            name="chaos_partition",
            description=(
                "NRT drops off the WAN mid-run, the LHR-JFK trunk flaps "
                "and the LHR-AMS trunk degrades; recovery after the "
                "partition heals must leave Riptide no worse than IW10."
            ),
            pop_codes=_CHAOS_POP_CODES,
            source_pop="LHR",
            target_pop="NRT",
            build=_partition_schedule,
        ),
        ChaosScenario(
            name="chaos_flaky_tools",
            description=(
                "ip route rejects mutations, ss serves stale/partial "
                "snapshots and the poll loop drifts — degraded tooling "
                "alone must not make Riptide do harm."
            ),
            pop_codes=_CHAOS_POP_CODES,
            source_pop="LHR",
            target_pop="JFK",
            build=_flaky_tools_schedule,
        ),
    )
}


def scenario_names() -> list[str]:
    return list(CHAOS_SCENARIOS)


def get_scenario(name: str) -> ChaosScenario:
    try:
        return CHAOS_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown chaos scenario {name!r}; available: "
            f"{', '.join(scenario_names())}"
        ) from None
