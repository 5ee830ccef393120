"""The safety guard: revert hostile paths to the kernel default.

Rüth & Hohlfeld's CDN initial-window study makes the stakes of learned
initcwnds concrete: an aggressive first flight is only safe while the
path can absorb it.  Riptide learns large windows from *healthy*
history; when the network turns hostile (a loss storm, a rerouted path
with triple the RTT), continuing to jump-start new connections at the
learned window amplifies the damage — every fresh connection slams a
degraded path with a burst sized for the old one.

:class:`SafetyGuard` watches the same ``ss`` snapshots the agent already
polls.  Per destination it judges two signals:

* **loss** — the fraction of segments retransmitted, accumulated across
  poll windows until at least ``MIN_SEGMENTS`` segments have flowed (a
  path collapsed by the very loss being hunted may trickle only a
  segment or two per poll, so single-window judgement would never fire);
* **RTT** — each poll window's mean smoothed RTT against an EWMA
  baseline learned while the path was healthy.

Either signal past its threshold *trips* the guard: the agent withdraws
the learned route (new connections fall back to the kernel default
IW10) and holds the destination at the default for ``HOLD_SECONDS``
before allowing relearning.  State is plain per-destination bookkeeping;
everything is deterministic.
"""

from __future__ import annotations


from repro.net.addresses import Prefix

#: Retransmitted fraction of the accumulated segments that trips the guard.
LOSS_THRESHOLD = 0.15

#: A poll window's mean RTT above this multiple of the baseline trips it.
RTT_FACTOR = 3.0

#: Segments that must have flowed before the loss fraction is judged.
MIN_SEGMENTS = 20

#: Seconds a tripped destination stays pinned at the kernel default.
HOLD_SECONDS = 30.0

#: Weight of the existing baseline when folding in a new healthy RTT.
_RTT_BASELINE_ALPHA = 0.8

#: Samples above this multiple of the baseline are *elevated*: not yet a
#: trip, but not folded into the baseline either.  Without this gate a
#: slow-building storm ratchets the baseline upward poll by poll and the
#: spike never clears ``RTT_FACTOR`` times the (creeping) baseline.
_RTT_HEALTHY_FACTOR = 1.5


class PathHealth:
    """Per-destination aggregates of one ``ss`` poll."""

    __slots__ = ("segments_sent", "segments_retransmitted", "srtt_sum", "srtt_count")

    def __init__(self) -> None:
        self.segments_sent = 0
        self.segments_retransmitted = 0
        self.srtt_sum = 0.0
        self.srtt_count = 0

    def add(self, sent: int, retransmitted: int, srtt: float | None) -> None:
        self.segments_sent += sent
        self.segments_retransmitted += retransmitted
        if srtt is not None:
            self.srtt_sum += srtt
            self.srtt_count += 1

    @property
    def srtt_mean(self) -> float | None:
        if self.srtt_count == 0:
            return None
        return self.srtt_sum / self.srtt_count


class _DestinationState:
    __slots__ = (
        "prev_sent", "prev_retransmitted", "acc_sent", "acc_retransmitted", "rtt_baseline",
        "held_until",
    )

    def __init__(self) -> None:
        self.prev_sent = 0
        self.prev_retransmitted = 0
        #: Deltas accumulated across polls until ``MIN_SEGMENTS`` is reached
        #: — a collapsed path trickles so few segments per poll that a
        #: single-window judgement would never fire.
        self.acc_sent = 0
        self.acc_retransmitted = 0
        self.rtt_baseline: float | None = None
        self.held_until: float | None = None

    def reset_accumulators(self) -> None:
        self.acc_sent = 0
        self.acc_retransmitted = 0


class SafetyGuard:
    """Per-destination loss/RTT watchdog over the agent's poll stream."""

    def __init__(self) -> None:
        self._state: dict[Prefix, _DestinationState] = {}

    # ------------------------------------------------------------------
    # hold bookkeeping
    # ------------------------------------------------------------------

    def holding(self, destination: Prefix, now: float) -> bool:
        """True while ``destination`` is pinned at the kernel default."""
        state = self._state.get(destination)
        return (
            state is not None
            and state.held_until is not None
            and now < state.held_until
        )

    def release_expired(self, now: float) -> list[Prefix]:
        """Pop and return destinations whose hold just lapsed."""
        released = []
        for destination, state in self._state.items():
            if state.held_until is not None and now >= state.held_until:
                state.held_until = None
                # The path may still be slow; relearn the baseline fresh
                # rather than spike-comparing against pre-fault history,
                # and judge loss on post-hold traffic only.
                state.rtt_baseline = None
                state.reset_accumulators()
                released.append(destination)
        return released

    # ------------------------------------------------------------------
    # the verdict
    # ------------------------------------------------------------------

    def observe(
        self, destination: Prefix, health: PathHealth, now: float
    ) -> str | None:
        """Fold one poll window in; returns a trip reason or ``None``.

        A returned reason (``"loss_spike"`` / ``"rtt_spike"``) means the
        caller must withdraw the destination's learned route; the guard
        has already started the hold timer.
        """
        state = self._state.get(destination)
        if state is None:
            state = self._state[destination] = _DestinationState()
        if state.held_until is not None:
            # Already tripped; don't re-trip (and don't poison the
            # baseline with fault-window samples).
            self._rebaseline_counters(state, health)
            return None

        delta_sent = health.segments_sent - state.prev_sent
        delta_rexmit = health.segments_retransmitted - state.prev_retransmitted
        self._rebaseline_counters(state, health)
        if delta_sent < 0 or delta_rexmit < 0:
            # Socket churn shrank the totals; these deltas (and whatever
            # was accumulating) are unjudgeable.
            state.reset_accumulators()
            return None

        # Accumulate until enough segments have flowed to judge loss —
        # a path collapsed by the very loss we are hunting may move only
        # a segment or two per poll.
        state.acc_sent += delta_sent
        state.acc_retransmitted += delta_rexmit
        if state.acc_sent >= MIN_SEGMENTS:
            loss = state.acc_retransmitted / state.acc_sent
            state.reset_accumulators()
            if loss > LOSS_THRESHOLD:
                state.held_until = now + HOLD_SECONDS
                return "loss_spike"

        srtt = health.srtt_mean
        if srtt is not None:
            baseline = state.rtt_baseline
            if baseline is None:
                state.rtt_baseline = srtt
            elif srtt > RTT_FACTOR * baseline:
                state.held_until = now + HOLD_SECONDS
                return "rtt_spike"
            elif srtt <= _RTT_HEALTHY_FACTOR * baseline:
                state.rtt_baseline = (
                    _RTT_BASELINE_ALPHA * baseline
                    + (1.0 - _RTT_BASELINE_ALPHA) * srtt
                )
            # else: elevated but below the trip factor — hold the
            # baseline steady rather than learning the degradation.
        return None

    @staticmethod
    def _rebaseline_counters(state: _DestinationState, health: PathHealth) -> None:
        state.prev_sent = health.segments_sent
        state.prev_retransmitted = health.segments_retransmitted

    def forget(self, destination: Prefix) -> None:
        """Drop all state for a destination (TTL expiry, agent stop)."""
        self._state.pop(destination, None)

    def reset(self) -> None:
        """Forget everything (agent crash: in-memory state is gone)."""
        self._state.clear()

    def __repr__(self) -> str:
        return f"<SafetyGuard tracked={len(self._state)}>"
