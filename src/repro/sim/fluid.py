"""Mean-field fluid model of a background TCP population.

Riptide's learning loop only ever consumes *aggregates*: the per-poll
mean congestion window toward each destination, the retransmit fraction
the safety guard watches, the smoothed RTT.  None of those need every
background flow simulated packet by packet — following McDonald &
Reynier's mean-field analysis of many TCP connections through a shared
buffer, the *distribution* of congestion windows in a large population
can be evolved analytically instead.

:class:`CwndDistribution` is that state: a discretized histogram of
expected flow counts per congestion-window bin.  One coarse step applies

* **additive drift** — every surviving flow's window grows at a
  configurable rate (1 segment per RTT for canonical AIMD; workload
  harnesses derive the rate from their fetch schedule instead),
* **loss-driven halving** — each flow sees loss events at rate
  ``p * w / rtt`` (windows send proportionally more packets, so large
  windows are hit proportionally more often); the lost fraction of each
  bin moves to the ``w/2`` bin, and
* **a cap** — mass cannot drift past the top bin (the receive-window
  clamp a real peer would impose).

:class:`FluidPopulation` wraps one distribution with connection churn
(departures at a per-flow rate, arrivals re-entering at the *currently
routed* initial window, which is how a Riptide-installed route feeds
back into the fluid cohort) and the cumulative counters — segments
sent, segments retransmitted, bytes acked — that the ``ss`` synthesis
layer turns into socket snapshots.

Everything here is closed-form float arithmetic: no random streams, no
wall clock.  Two populations stepped with the same inputs produce
bit-identical state, which is what keeps hybrid runs reproducible under
``--workers N``.  Each population carries a :attr:`~FluidPopulation.state_id`
that names its parameters and full state: equal ids mean bit-identical
cohorts.  :meth:`FluidPopulation.intern_state` gives cohorts built alike
one id by value (:meth:`FluidPopulation.step_key`), a computed step mints
a fresh id, and :meth:`FluidPopulation.adopt_step` hands a step's result
and id to a twin.  An engine can so step one cohort per distinct
``(state id, loss, entry bin)`` and copy the result to the others without
moving a bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

#: Largest representable congestion window (the receive-window cap).
MAX_WINDOW = 320

#: Source of fresh state ids: never reused, so an id names one state.
_state_ids = itertools.count(1)


@dataclass(frozen=True, eq=False)
class FluidConfig:
    """Discretization and stepping knobs shared by a fluid engine."""

    #: Simulated seconds between fluid steps (the coarse cadence).
    cadence: float = 0.25
    #: Histogram bin width in segments (1 = exact integer windows).
    bin_width: int = 1

    def __post_init__(self) -> None:
        if not self.cadence > 0:
            raise ValueError(f"cadence must be positive, got {self.cadence}")
        if self.bin_width < 1:
            raise ValueError(f"bin_width must be >= 1, got {self.bin_width}")


#: Bin masses below this are trimmed when the active range is updated.
_MASS_EPSILON = 1e-12


@lru_cache(maxsize=None)
def _bin_tables(nbins: int, bin_width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per bin: its window and the bin a halved flow lands in (one pair
    per discretization, shared by every cohort of a run)."""
    windows = tuple(b * bin_width + 1 for b in range(nbins))
    half_bins = tuple((max(1, w >> 1) - 1) // bin_width for w in windows)
    return windows, half_bins


@lru_cache(maxsize=None)
def _age_quantiles(count: int) -> tuple[float, ...]:
    """``-log(1 - q)`` at the ``count`` mid-quantiles ``q = (i + 0.5) / count``."""
    return tuple(-math.log(1.0 - (i + 0.5) / count) for i in range(count))


class CwndDistribution:
    """A discretized congestion-window histogram for one flow cohort.

    Bin ``b`` represents windows ``[b * bin_width + 1, (b + 1) *
    bin_width]``; its representative window (used for send rates and
    sampling) is the lower edge ``b * bin_width + 1``, so ``bin_width=1``
    tracks exact integer windows.  The histogram keeps an active
    ``[lo, hi]`` bin range so stepping costs O(spread), not O(bins) —
    AIMD populations concentrate, so the spread stays narrow — and a
    step is two sweeps of that range: the scatter, then one that trims,
    totals and applies churn together.

    The window total and send rate a stepped cohort needs are read out
    once, by :meth:`FluidPopulation.step`, and stored on the population;
    :meth:`total_window_segments` and :meth:`total_send_segments_per_sec`
    compute them afresh for every other reader.
    """

    __slots__ = (
        "bin_width",
        "nbins",
        "_bin_mass",
        "_lo_bin",
        "_hi_bin",
        "flows",
        "_windows",
        "_half_bins",
    )

    def __init__(self, max_window: int = MAX_WINDOW, bin_width: int = 1) -> None:
        if max_window < 2:
            raise ValueError(f"max_window must be >= 2, got {max_window}")
        if bin_width < 1:
            raise ValueError(f"bin_width must be >= 1, got {bin_width}")
        self.bin_width = bin_width
        self.nbins = (max_window + bin_width - 1) // bin_width
        self._bin_mass = [0.0] * self.nbins
        self._lo_bin = 0
        self._hi_bin = -1  # empty
        self.flows = 0.0
        self._windows, self._half_bins = _bin_tables(self.nbins, bin_width)

    # ------------------------------------------------------------------
    # bin/window mapping
    # ------------------------------------------------------------------

    def window_to_bin(self, window: int) -> int:
        bin_index = (window - 1) // self.bin_width
        if bin_index < 0:
            return 0
        if bin_index >= self.nbins:
            return self.nbins - 1
        return bin_index

    def bin_to_window(self, bin_index: int) -> int:
        return bin_index * self.bin_width + 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add_mass(self, window: int, mass: float) -> None:
        """Inject ``mass`` flows whose window is ``window`` (none for a
        mass <= 0; NaN raises)."""
        if not mass > 0.0:
            if mass <= 0.0:
                return
            raise ValueError(f"mass must be a number, got {mass}")
        bin_index = self.window_to_bin(window)
        self._bin_mass[bin_index] += mass
        self.flows += mass
        if self._hi_bin < 0:
            self._lo_bin = self._hi_bin = bin_index
        else:
            if bin_index < self._lo_bin:
                self._lo_bin = bin_index
            if bin_index > self._hi_bin:
                self._hi_bin = bin_index

    def step(
        self,
        dt: float,
        rtt: float,
        loss_rate: float,
        drift_segments_per_sec: float,
        send_rate_cap: float | None = None,
        departing_fraction: float = 0.0,
    ) -> float:
        """Advance the cohort by ``dt`` seconds.

        ``loss_rate`` is the per-segment drop probability of the path;
        ``drift_segments_per_sec`` the additive window growth of a
        surviving flow.  A flow's loss exposure scales with what it
        actually *sends*: one window per RTT for a bulk flow, capped at
        ``send_rate_cap`` segments/s for request/response flows that sit
        idle between fetches (exposure far below ``w/rtt``).
        ``departing_fraction`` of every bin then leaves (connection
        churn over the step), every bin scaled by the same share, in the
        sweep that recomputes the active range.  Returns
        the expected number of loss (halving) events this step — the
        retransmission mass the counters track.

        A NaN or negative drift, loss or departing share, and an ``rtt``
        that is not positive and finite, raise :class:`ValueError`
        instead of turning loss or churn off; the checks run once per
        step, never per bin.
        """
        if not drift_segments_per_sec >= 0.0:
            raise ValueError(
                f"drift must be >= 0, got {drift_segments_per_sec}"
            )
        if not loss_rate >= 0.0:
            raise ValueError(f"loss_rate must be >= 0, got {loss_rate}")
        if not 0.0 < rtt < math.inf:
            raise ValueError(f"rtt must be positive and finite, got {rtt}")
        if not departing_fraction >= 0.0:
            raise ValueError(
                f"departing_fraction must be >= 0, got {departing_fraction}"
            )
        if dt <= 0.0 or self._hi_bin < 0:
            return 0.0
        nbins = self.nbins
        top = nbins - 1
        mass = self._bin_mass
        windows = self._windows
        half_bins = self._half_bins
        new = [0.0] * nbins
        shift = drift_segments_per_sec * dt / self.bin_width
        whole = int(shift)
        frac = shift - whole
        stay = 1.0 - frac
        loss_scale = loss_rate * dt / rtt
        cap_q = (
            loss_rate * send_rate_cap * dt if send_rate_cap is not None else None
        )
        loss_events = 0.0
        for b in range(self._lo_bin, self._hi_bin + 1):
            m = mass[b]
            if m <= 0.0:
                continue
            q = loss_scale * windows[b]
            if cap_q is not None and q > cap_q:
                q = cap_q
            if q >= 1.0:
                q = 1.0
            if q > 0.0:
                halved = m * q
                loss_events += halved
                m -= halved
                new[half_bins[b]] += halved
            if m <= 0.0:
                continue
            target = b + whole
            if target >= top:
                new[top] += m
            else:
                new[target] += m * stay
                new[target + 1] += m * frac
        if departing_fraction >= 1.0:
            # Everyone leaves: the scatter only counted the loss events.
            self._bin_mass = [0.0] * nbins
            self._lo_bin, self._hi_bin = 0, -1
            self.flows = 0.0
            return loss_events
        # The second sweep.  The scatter wrote no bin below the halving
        # target of ``lo`` and none above the drift target of ``hi``, so
        # every bin outside that stretch of the fresh histogram is 0.0.
        # Over the stretch it recomputes the active range, trims
        # slivers, totals the flows and applies churn: a bin is trimmed
        # on its mass before churn and kept as ``m * keep``, and
        # ``flows`` is the total times ``keep`` -- bit for bit what a
        # separate scaling pass after the sweep would leave, and a
        # ``keep`` of 1.0 changes nothing.
        keep = 1.0 - departing_fraction if departing_fraction > 0.0 else 1.0
        lo, hi, total = 0, -1, 0.0
        for b in range(half_bins[self._lo_bin], min(top, self._hi_bin + whole + 1) + 1):
            m = new[b]
            if m > _MASS_EPSILON:
                if hi < 0:
                    lo = b
                hi = b
                total += m
                new[b] = m * keep
            elif m > 0.0:
                new[b] = 0.0
        self._bin_mass = new
        self._lo_bin, self._hi_bin = lo, hi
        self.flows = total * keep
        return loss_events

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------

    def total_window_segments(self) -> float:
        """Sum of every flow's window — the cohort's one-RTT footprint."""
        if self._hi_bin < 0:
            return 0.0
        lo, stop = self._lo_bin, self._hi_bin + 1
        return sum(map(mul, self._bin_mass[lo:stop], self._windows[lo:stop]))

    def total_send_segments_per_sec(
        self, rtt: float, send_rate_cap: float | None = None
    ) -> float:
        """Aggregate send rate: each flow ships ``min(w/rtt, cap)`` seg/s."""
        if self._hi_bin < 0:
            return 0.0
        if send_rate_cap is None:
            return self.total_window_segments() / rtt
        windows = self._windows
        mass = self._bin_mass
        total = 0.0
        for b in range(self._lo_bin, self._hi_bin + 1):
            rate = windows[b] / rtt
            if rate > send_rate_cap:
                rate = send_rate_cap
            total += mass[b] * rate
        return total

    def mean(self) -> float:
        """Mean congestion window of the cohort (0 when empty)."""
        if self.flows <= 0.0:
            return 0.0
        return self.total_window_segments() / self.flows

    def quantile(self, q: float) -> int:
        """The window at cumulative fraction ``q`` of the cohort."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._hi_bin < 0:
            return 1
        target = q * self.flows
        cum = 0.0
        mass = self._bin_mass
        for b in range(self._lo_bin, self._hi_bin + 1):
            cum += mass[b]
            if cum >= target:
                return self.bin_to_window(b)
        return self.bin_to_window(self._hi_bin)

    def sample_windows(self, count: int) -> list[int]:
        """``count`` representative windows at evenly spaced quantiles.

        Deterministic (mid-quantile rule): sample ``i`` sits at fraction
        ``(i + 0.5) / count`` of the mass, so the samples' mean tracks
        the distribution mean and repeated calls are bit-identical.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if self._hi_bin < 0:
            return [1] * count
        samples: list[int] = []
        mass = self._bin_mass
        windows = self._windows
        total = self.flows
        b = self._lo_bin
        cum = mass[b]
        for i in range(count):
            target = (i + 0.5) / count * total
            while cum < target and b < self._hi_bin:
                b += 1
                cum += mass[b]
            samples.append(windows[b])
        return samples

    def __repr__(self) -> str:
        return (
            f"<CwndDistribution flows={self.flows:.1f} "
            f"mean={self.mean():.1f} bins={self.nbins}x{self.bin_width}>"
        )


class FluidPopulation:
    """One destination pair's fluid cohort plus its lifecycle bookkeeping.

    The population holds ``target_flows`` open connections: departures
    leave at ``churn_per_flow_per_sec`` (a per-flow hazard rate, like the
    packet workload's close-after-fetch probability times its fetch
    rate) and are immediately replaced by fresh connections entering at
    ``entry_window`` — the initial window the host's route table
    currently resolves for the destination, so an installed Riptide
    route jump-starts the fluid cohort exactly like it jump-starts a
    packet connection.

    Cumulative counters accumulate the aggregate the cohort *would* have
    produced: ``segments_sent_total`` from the send rate ``w/rtt`` per
    flow, ``segments_retx_total`` from the halving events, and
    ``bytes_acked_total`` from delivered segments.  They only ever grow,
    so consumers that difference successive polls (the safety guard's
    retransmit ratio) see the right marginal rates.  ``offered`` is the
    aggregate send rate in bits/s and ``window_total`` the sum of every
    flow's window, as the last step (or construction) left them: what
    :meth:`offered_bps` and ``distribution.total_window_segments()``
    return until the histogram is next changed from outside :meth:`step`.

    ``state_id`` names the parameters and the state: two cohorts with
    equal ids hold bit-identical values in every field :meth:`step`
    reads.  Only this module writes those fields (lint rule SIM001), and
    every write here either mints a fresh id (construction, :meth:`step`)
    or takes the id of the cohort whose values it copies
    (:meth:`intern_state`, :meth:`adopt_step`).
    """

    __slots__ = (
        "name",
        "rtt",
        "mss",
        "distribution",
        "target_flows",
        "growth_segments_per_sec",
        "send_segments_per_flow_per_sec",
        "churn_per_flow_per_sec",
        "created_at",
        "is_client",
        "segments_sent_total",
        "segments_retx_total",
        "bytes_acked_total",
        "steps",
        "offered",
        "window_total",
        "state_id",
        "_departing",
        "_departing_dt",
        "_departing_churn",
    )

    def __init__(
        self,
        name: str,
        rtt: float,
        target_flows: float,
        entry_window: int,
        bin_width: int = 1,
        growth_segments_per_sec: float | None = None,
        send_segments_per_flow_per_sec: float | None = None,
        churn_per_flow_per_sec: float = 0.0,
        mss: int = 1460,
        created_at: float = 0.0,
        is_client: bool = False,
    ) -> None:
        if not 0 < rtt < math.inf:
            raise ValueError(f"rtt must be positive and finite, got {rtt}")
        if not 0 < target_flows < math.inf:
            raise ValueError(
                f"target_flows must be positive and finite, got {target_flows}"
            )
        if not 0 <= churn_per_flow_per_sec < math.inf:
            raise ValueError(
                f"churn must be >= 0 and finite, got {churn_per_flow_per_sec}"
            )
        for label, rate in (
            ("growth", growth_segments_per_sec),
            ("send cap", send_segments_per_flow_per_sec),
        ):
            if rate is not None and not 0 <= rate < math.inf:
                raise ValueError(f"{label} must be >= 0 and finite, got {rate}")
        self.name = name
        self.rtt = float(rtt)
        self.mss = int(mss)
        self.distribution = CwndDistribution(MAX_WINDOW, bin_width)
        self.target_flows = float(target_flows)
        # Canonical AIMD: one segment per RTT.
        self.growth_segments_per_sec = (
            growth_segments_per_sec
            if growth_segments_per_sec is not None
            else 1.0 / self.rtt
        )
        # Bulk flows (None) send a full window per RTT; request/response
        # flows mostly idle, so their loss exposure and offered load are
        # capped at the workload's actual per-flow send rate.
        self.send_segments_per_flow_per_sec = (
            float(send_segments_per_flow_per_sec)
            if send_segments_per_flow_per_sec is not None
            else None
        )
        self.churn_per_flow_per_sec = float(churn_per_flow_per_sec)
        self.created_at = float(created_at)
        self.is_client = bool(is_client)
        self.segments_sent_total = 0.0
        self.segments_retx_total = 0.0
        self.bytes_acked_total = 0.0
        self.steps = 0
        # The share churn takes per step, for the last ``dt`` and churn
        # rate the step saw.
        self._departing = 0.0
        self._departing_dt: float | None = None
        self._departing_churn: float | None = None
        self.distribution.add_mass(entry_window, self.target_flows)
        self.offered = self.offered_bps()
        self.window_total = self.distribution.total_window_segments()
        self.state_id = next(_state_ids)

    @property
    def flows(self) -> float:
        return self.distribution.flows

    def mean_window(self) -> float:
        return self.distribution.mean()

    def offered_bps(self) -> float:
        """Aggregate send rate in bits/s (window-limited or rate-capped)."""
        rate = self.distribution.total_send_segments_per_sec(
            self.rtt, self.send_segments_per_flow_per_sec
        )
        return rate * self.mss * 8.0

    def step_key(self) -> tuple[object, ...]:
        """Everything :meth:`step` reads besides its inputs, as one value.

        The parameters and the full state: the range, the flows, the
        three cumulative counters, ``steps`` and, last, the active bins
        (every other bin is 0.0; the range fixes how many there are).
        The step is closed-form float arithmetic over exactly these and
        its inputs -- ``dt``, the loss rate and the *bin* of the entry
        window, which it reads only through :meth:`CwndDistribution.add_mass`
        -- so two cohorts with equal keys stepped with equal inputs leave
        with bit-identical state.  An engine builds the key once per new
        cohort (:meth:`intern_state`); from then on ``state_id`` stands
        for it.
        """
        dist = self.distribution
        lo, hi = dist._lo_bin, dist._hi_bin
        return (
            self.rtt,
            self.target_flows,
            self.growth_segments_per_sec,
            self.send_segments_per_flow_per_sec,
            self.churn_per_flow_per_sec,
            self.mss,
            dist.bin_width,
            dist.nbins,
            lo,
            hi,
            dist.flows,
            self.segments_sent_total,
            self.segments_retx_total,
            self.bytes_acked_total,
            self.steps,
            *dist._bin_mass[lo : hi + 1],
        )

    def intern_state(self, ids: dict[tuple[object, ...], int]) -> None:
        """Take the state id of the cohort interned in ``ids`` under an
        equal :meth:`step_key`, or enter this cohort's own.

        ``ids`` is valid while every id it holds still names the state it
        was entered with: until the next step of the cohorts entered.
        """
        self.state_id = ids.setdefault(self.step_key(), self.state_id)

    def step(self, dt: float, loss_rate: float, entry_window: int) -> None:
        """Advance the cohort: drift/halve, churn out, refill at entry."""
        dist = self.distribution
        rtt = self.rtt
        cap = self.send_segments_per_flow_per_sec
        churn = self.churn_per_flow_per_sec
        if dt != self._departing_dt or churn != self._departing_churn:
            self._departing = 1.0 - math.exp(-churn * dt) if churn > 0.0 else 0.0
            self._departing_dt = dt
            self._departing_churn = churn
        loss_events = dist.step(
            dt, rtt, loss_rate, self.growth_segments_per_sec, cap, self._departing
        )
        deficit = self.target_flows - dist.flows
        if deficit > 0.0:
            dist.add_mass(entry_window, deficit)
        # One read-out pass over the refilled histogram: the window total
        # (stored for the engine's gauges) and the send rate, each an
        # explicit left-to-right loop -- the bits ``sum`` gives through
        # 3.11 (3.12's is compensated) and the capped-rate loop of
        # ``total_send_segments_per_sec``.
        mass = dist._bin_mass
        windows = dist._windows
        window_total = 0.0
        if cap is None:
            for b in range(dist._lo_bin, dist._hi_bin + 1):
                window_total += mass[b] * windows[b]
            rate = window_total / rtt
        else:
            rate = 0.0
            for b in range(dist._lo_bin, dist._hi_bin + 1):
                m = mass[b]
                w = windows[b]
                window_total += m * w
                flow_rate = w / rtt
                if flow_rate > cap:
                    flow_rate = cap
                rate += m * flow_rate
        self.window_total = window_total
        sent = rate * dt
        retx = loss_events
        self.segments_sent_total += sent + retx
        self.segments_retx_total += retx
        self.bytes_acked_total += sent * self.mss
        self.offered = rate * self.mss * 8.0
        self.steps += 1
        self.state_id = next(_state_ids)

    def adopt_step(self, twin: FluidPopulation) -> None:
        """Take the state (and state id) ``twin`` was left in by the step
        this cohort would have taken: both had one state id and stepped
        with equal inputs."""
        mine, theirs = self.distribution, twin.distribution
        mine._bin_mass = theirs._bin_mass[:]
        mine._lo_bin = theirs._lo_bin
        mine._hi_bin = theirs._hi_bin
        mine.flows = theirs.flows
        self.window_total = twin.window_total
        self.segments_sent_total = twin.segments_sent_total
        self.segments_retx_total = twin.segments_retx_total
        self.bytes_acked_total = twin.bytes_acked_total
        self.offered = twin.offered
        self.steps = twin.steps
        self.state_id = twin.state_id

    def sample_ages(self, count: int, now: float) -> list[float]:
        """Deterministic flow ages at mid-quantiles of the churn process.

        With churn the age distribution is exponential with rate equal
        to the per-flow hazard; without churn every flow is as old as
        the population.  Ages are capped at the population's own age.
        """
        lifetime = max(0.0, now - self.created_at)
        rate = self.churn_per_flow_per_sec
        if rate <= 0.0:
            return [lifetime] * count
        return [min(lifetime, x / rate) for x in _age_quantiles(count)]

    def __repr__(self) -> str:
        return (
            f"<FluidPopulation {self.name!r} flows={self.flows:.1f} "
            f"mean_cwnd={self.mean_window():.1f} rtt={self.rtt * 1e3:.0f}ms>"
        )
