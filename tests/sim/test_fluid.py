"""Tests for the mean-field fluid engine (`repro.sim.fluid`).

The closed-form checks pin the model to its analytics: mass is
conserved, drift moves the mean at exactly the configured rate, loss
halves the right bins, churn settles at its fixed point, and stepping
is bit-deterministic.
"""

import math
import random

import pytest

from repro.sim.fluid import MAX_WINDOW, CwndDistribution, FluidConfig, FluidPopulation


class TestFluidConfig:
    def test_defaults_validate(self):
        config = FluidConfig()
        assert config.cadence == 0.25
        assert config.bin_width == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cadence": 0.0},
            {"bin_width": 0},
            {"cadence": float("nan")},
            {"cadence": -0.25},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FluidConfig(**kwargs)


class TestCwndDistribution:
    def test_add_mass_tracks_totals(self):
        dist = CwndDistribution(max_window=100)
        dist.add_mass(10, 5.0)
        dist.add_mass(20, 3.0)
        assert dist.flows == pytest.approx(8.0)
        assert dist.total_window_segments() == pytest.approx(5 * 10 + 3 * 20)
        assert dist.mean() == pytest.approx(110 / 8)

    def test_window_bin_round_trip(self):
        dist = CwndDistribution(max_window=320, bin_width=4)
        for window in (1, 4, 5, 100, 317):
            b = dist.window_to_bin(window)
            assert dist.bin_to_window(b) <= window
            assert window <= dist.bin_to_window(b) + dist.bin_width - 1

    def test_no_loss_drift_is_exact(self):
        """With zero loss the mean advances at exactly the drift rate."""
        dist = CwndDistribution(max_window=320)
        dist.add_mass(10, 1000.0)
        for _ in range(10):
            dist.step(0.25, rtt=0.1, loss_rate=0.0, drift_segments_per_sec=100.0)
        # 10 steps x 0.25 s x 100 seg/s = 250 segments of drift.
        assert dist.mean() == pytest.approx(260.0, rel=1e-9)
        assert dist.flows == pytest.approx(1000.0)

    def test_mass_conserved_under_loss(self):
        dist = CwndDistribution(max_window=320)
        dist.add_mass(64, 500.0)
        for _ in range(200):
            dist.step(0.25, rtt=0.1, loss_rate=0.01, drift_segments_per_sec=10.0)
        assert dist.flows == pytest.approx(500.0, rel=1e-6)

    def test_halving_moves_mass_to_half_bin(self):
        dist = CwndDistribution(max_window=320)
        dist.add_mass(100, 1.0)
        # One step, certain loss, no drift: everything lands at w/2.
        events = dist.step(
            0.25, rtt=0.1, loss_rate=1.0, drift_segments_per_sec=0.0
        )
        assert events == pytest.approx(1.0)
        assert dist.quantile(0.5) == 50

    def test_drift_clamps_at_top_bin(self):
        dist = CwndDistribution(max_window=100)
        dist.add_mass(95, 10.0)
        for _ in range(20):
            dist.step(0.25, rtt=0.1, loss_rate=0.0, drift_segments_per_sec=50.0)
        assert dist.mean() == pytest.approx(dist.max_window)
        assert dist.flows == pytest.approx(10.0)

    def test_lossy_equilibrium_is_stationary(self):
        """AIMD drift against loss halving settles, and stays settled."""
        dist = CwndDistribution(max_window=320)
        dist.add_mass(10, 1000.0)
        for _ in range(400):
            dist.step(0.25, rtt=0.1, loss_rate=0.02, drift_segments_per_sec=10.0)
        settled = dist.mean()
        for _ in range(100):
            dist.step(0.25, rtt=0.1, loss_rate=0.02, drift_segments_per_sec=10.0)
        assert dist.mean() == pytest.approx(settled, rel=0.01)
        assert 2.0 < settled < 50.0

    def test_send_rate_cap_limits_loss_exposure(self):
        """A rate-capped cohort sees loss per segment *sent*, not per
        window — idle request/response flows keep large windows alive."""
        bulk = CwndDistribution(max_window=320)
        capped = CwndDistribution(max_window=320)
        for dist in (bulk, capped):
            dist.add_mass(150, 100.0)
        bulk_events = bulk.step(0.25, 0.1, 0.001, 0.0)
        capped_events = capped.step(0.25, 0.1, 0.001, 0.0, send_rate_cap=20.0)
        # Bulk: p * w/rtt = .001 * 1500 = 1.5 events/flow/s; capped: .02.
        assert bulk_events > capped_events * 10
        assert capped_events == pytest.approx(100 * 0.001 * 20.0 * 0.25, rel=1e-6)

    def test_total_send_rate_respects_cap(self):
        dist = CwndDistribution(max_window=320)
        dist.add_mass(100, 10.0)
        uncapped = dist.total_send_segments_per_sec(0.1)
        assert uncapped == pytest.approx(10 * 100 / 0.1)
        capped = dist.total_send_segments_per_sec(0.1, send_rate_cap=50.0)
        assert capped == pytest.approx(10 * 50.0)

    def test_quantiles_and_samples_are_ordered(self):
        dist = CwndDistribution(max_window=320)
        dist.add_mass(10, 5.0)
        dist.add_mass(50, 5.0)
        dist.add_mass(200, 5.0)
        samples = dist.sample_windows(9)
        assert samples == sorted(samples)
        assert samples[0] == 10 and samples[-1] == 200
        assert dist.quantile(0.0) == 10
        assert dist.quantile(1.0) == 200

    def test_sample_mean_tracks_distribution_mean(self):
        dist = CwndDistribution(max_window=320)
        dist.add_mass(20, 400.0)
        for _ in range(100):
            dist.step(0.25, rtt=0.1, loss_rate=0.01, drift_segments_per_sec=8.0)
        samples = dist.sample_windows(64)
        sample_mean = sum(samples) / len(samples)
        assert sample_mean == pytest.approx(dist.mean(), rel=0.1)

    def test_stepping_is_bit_deterministic(self):
        def run():
            dist = CwndDistribution(max_window=320)
            dist.add_mass(10, 1234.5)
            out = []
            for i in range(50):
                out.append(
                    dist.step(0.25, 0.09, 0.005, 12.0, send_rate_cap=30.0)
                )
            return out, list(dist._bin_mass), dist.flows

        assert run() == run()


class TestFluidPopulation:
    def test_refill_holds_target(self):
        pop = FluidPopulation(
            "p", rtt=0.1, target_flows=100.0, entry_window=10,
            churn_per_flow_per_sec=0.5,
        )
        for _ in range(50):
            pop.step(0.25, loss_rate=0.0, entry_window=10)
        assert pop.flows == pytest.approx(100.0, rel=1e-6)

    def test_churn_fixed_point(self):
        """Mean settles at entry + growth/churn (no loss)."""
        growth, churn, entry = 5.0, 0.5, 10
        pop = FluidPopulation(
            "p", rtt=0.1, target_flows=1000.0, entry_window=entry,
            growth_segments_per_sec=growth,
            churn_per_flow_per_sec=churn,
        )
        for _ in range(1200):
            pop.step(0.25, loss_rate=0.0, entry_window=entry)
        assert pop.mean_window() == pytest.approx(entry + growth / churn, rel=0.05)

    def test_entry_window_follows_routes(self):
        """Raising the entry window (a Riptide install) lifts the cohort."""
        pop = FluidPopulation(
            "p", rtt=0.1, target_flows=100.0, entry_window=10,
            growth_segments_per_sec=1.0, churn_per_flow_per_sec=1.0,
        )
        for _ in range(200):
            pop.step(0.25, loss_rate=0.0, entry_window=10)
        before = pop.mean_window()
        for _ in range(200):
            pop.step(0.25, loss_rate=0.0, entry_window=100)
        assert pop.mean_window() > before + 50

    def test_counters_accumulate(self):
        pop = FluidPopulation(
            "p", rtt=0.1, target_flows=10.0, entry_window=10,
        )
        pop.step(0.25, loss_rate=0.01, entry_window=10)
        first = (pop.segments_sent_total, pop.segments_retx_total,
                 pop.bytes_acked_total)
        assert all(v > 0 for v in first)
        pop.step(0.25, loss_rate=0.01, entry_window=10)
        assert pop.segments_sent_total > first[0]
        assert pop.segments_retx_total > first[1]
        assert pop.bytes_acked_total > first[2]

    def test_offered_bps_matches_window_footprint(self):
        pop = FluidPopulation(
            "p", rtt=0.1, target_flows=10.0, entry_window=20, mss=1460,
        )
        expected = 10 * 20 * 1460 * 8 / 0.1
        assert pop.offered_bps() == pytest.approx(expected)

    def test_send_cap_bounds_offered_bps(self):
        pop = FluidPopulation(
            "p", rtt=0.1, target_flows=10.0, entry_window=20, mss=1460,
            send_segments_per_flow_per_sec=5.0,
        )
        assert pop.offered_bps() == pytest.approx(10 * 5.0 * 1460 * 8)

    def test_sample_ages_exponential_mid_quantiles(self):
        pop = FluidPopulation(
            "p", rtt=0.1, target_flows=10.0, entry_window=10,
            churn_per_flow_per_sec=0.5, created_at=0.0,
        )
        ages = pop.sample_ages(4, now=1000.0)
        expected = [-math.log(1.0 - (i + 0.5) / 4) / 0.5 for i in range(4)]
        assert ages == pytest.approx(expected)
        # Without churn every flow is as old as the population.
        eternal = FluidPopulation(
            "q", rtt=0.1, target_flows=10.0, entry_window=10, created_at=40.0,
        )
        assert eternal.sample_ages(3, now=100.0) == [60.0] * 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rtt": 0.0},
            {"target_flows": 0.0},
            {"churn_per_flow_per_sec": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        defaults = dict(
            name="p", rtt=0.1, target_flows=10.0, entry_window=10
        )
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            FluidPopulation(**defaults)


# ----------------------------------------------------------------------
# the active-range retighten and the window-total cache, differentially
# ----------------------------------------------------------------------


class FullScanDistribution(CwndDistribution):
    """The reference: retighten over every bin, whatever the step wrote."""

    def _retighten(self, first, last, keep=1.0):
        super()._retighten(0, self.nbins - 1, keep)


def state_of(dist):
    return list(dist._bin_mass), dist.flows, dist._lo_bin, dist._hi_bin


def empty(dist):
    """Every flow leaves: one churn step that departs them all."""
    dist.step(0.25, 0.1, 0.0, 0.0, departing_fraction=1.0)


def fresh_window_total(dist):
    """``total_window_segments`` recomputed from the bins, no cache."""
    if dist._hi_bin < 0:
        return 0.0
    return sum(
        dist._bin_mass[b] * (b * dist.bin_width + 1)
        for b in range(dist._lo_bin, dist._hi_bin + 1)
    )


@pytest.mark.parametrize("bin_width", [1, 4])
@pytest.mark.parametrize("seed", range(4))
def test_active_range_retighten_matches_full_scan(seed, bin_width):
    rng = random.Random(seed)
    fast = CwndDistribution(max_window=120, bin_width=bin_width)
    full = FullScanDistribution(max_window=120, bin_width=bin_width)
    reached_top = emptied = False
    for _ in range(200):
        # Arrivals: anywhere in range, sometimes a sliver that a lossy
        # step splits below the trim threshold.
        window = rng.choice((1, 2, 10, 60, 119, 120, rng.randint(1, 120)))
        mass = rng.choice((0.0, 3e-12, 1.0, rng.uniform(0.0, 500.0)))
        # Departures: none, some, nearly all (survivors under the trim
        # threshold), all.
        fraction = rng.choice((0.0, 0.0, rng.random(), 1.0 - 1e-14, 1.0))
        dt = rng.choice((0.25, 0.5))
        rtt = rng.choice((0.01, 0.1, 0.3))
        loss = rng.choice((0.0, 1e-4, 0.02, 0.5))
        # ``whole`` is 0 for the small drifts and up to 25 bins for the rest.
        drift = rng.choice((0.0, 0.3, 2.0, 9.0, 40.0, 200.0))
        cap = rng.choice((None, None, 5.0, 400.0))
        results = []
        for dist in (fast, full):
            dist.add_mass(window, mass)
            results.append(
                dist.step(dt, rtt, loss, drift, send_rate_cap=cap, departing_fraction=fraction)
            )
        assert results[0] == results[1]
        assert state_of(fast) == state_of(full)
        assert fast.total_window_segments() == fresh_window_total(full)
        outside = fast._bin_mass[: fast._lo_bin] + fast._bin_mass[fast._hi_bin + 1 :]
        assert not any(outside)
        reached_top |= fast._hi_bin == fast.nbins - 1
        emptied |= fast._hi_bin < 0
    assert reached_top and emptied


def test_slivers_under_the_trim_threshold_are_dropped():
    dist = CwndDistribution(max_window=100)
    dist.add_mass(50, 1.5e-12)
    # Half a bin of drift splits the sliver into two sub-threshold halves.
    dist.step(0.25, rtt=0.1, loss_rate=0.0, drift_segments_per_sec=2.0)
    assert state_of(dist) == ([0.0] * 100, 0.0, 0, -1)


def test_negative_drift_rejected():
    dist = CwndDistribution(max_window=100)
    dist.add_mass(50, 10.0)
    with pytest.raises(ValueError):
        dist.step(0.25, rtt=0.1, loss_rate=0.0, drift_segments_per_sec=-1.0)


def test_window_total_cache_is_dropped_by_every_mutator():
    population = FluidPopulation(
        name="p", rtt=0.08, target_flows=300.0, entry_window=10
    )
    dist = population.distribution

    def check():
        total = fresh_window_total(dist)
        assert dist.total_window_segments() == total
        assert dist.mean() == (total / dist.flows if dist.flows > 0.0 else 0.0)
        assert population.offered_bps() == total / population.rtt * population.mss * 8.0

    check()
    dist.add_mass(150, 40.0)
    check()
    dist.step(0.25, population.rtt, 0.0, 0.0, departing_fraction=0.3)
    check()
    dist.step(0.25, population.rtt, 0.01, 12.0)
    check()
    population.step(0.25, loss_rate=0.02, entry_window=30)
    check()
    empty(dist)
    check()
    dist.add_mass(5, 2.0)
    check()


@pytest.mark.parametrize("seed", range(20))
def test_median_quantile_is_the_single_mid_sample(seed):
    """``quantile`` needs no special case at 0.5: same bin either way."""
    rng = random.Random(seed)
    dist = CwndDistribution(max_window=320, bin_width=rng.choice((1, 4)))
    for _ in range(rng.randint(1, 6)):
        dist.add_mass(rng.randint(1, 320), rng.uniform(0.1, 50.0))
    for _ in range(rng.randint(0, 5)):
        dist.step(0.25, 0.1, rng.choice((0.0, 0.01)), rng.uniform(0.0, 20.0))
    assert dist.quantile(0.5) == dist.sample_windows(1)[0]


# ----------------------------------------------------------------------
# the cohort step, differentially against the five-pass reference
# ----------------------------------------------------------------------


class FivePassDistribution:
    """The reference histogram: PR 14's mutators and read-outs, verbatim.

    Per step it walks the active bins five times — the scatter (window
    and half-bin arithmetic per bin), ``_retighten``, ``remove_fraction``
    and, after ``add_mass``, the generator behind
    ``total_window_segments``.  Kept here, not in ``src/``, so the shipped
    step can be reshaped freely as long as every float stays the same.
    """

    def __init__(self, max_window=320, bin_width=1):
        self.bin_width = bin_width
        self.nbins = (max_window + bin_width - 1) // bin_width
        self._bin_mass = [0.0] * self.nbins
        self._lo_bin = 0
        self._hi_bin = -1
        self.flows = 0.0
        self._window_total = None

    def window_to_bin(self, window):
        bin_index = (window - 1) // self.bin_width
        if bin_index < 0:
            return 0
        if bin_index >= self.nbins:
            return self.nbins - 1
        return bin_index

    def bin_to_window(self, bin_index):
        return bin_index * self.bin_width + 1

    def add_mass(self, window, mass):
        if mass <= 0.0:
            return
        bin_index = self.window_to_bin(window)
        self._bin_mass[bin_index] += mass
        self.flows += mass
        self._window_total = None
        if self._hi_bin < 0:
            self._lo_bin = self._hi_bin = bin_index
        else:
            if bin_index < self._lo_bin:
                self._lo_bin = bin_index
            if bin_index > self._hi_bin:
                self._hi_bin = bin_index

    def remove_fraction(self, fraction):
        if fraction <= 0.0 or self._hi_bin < 0:
            return 0.0
        self._window_total = None
        if fraction >= 1.0:
            removed = self.flows
            mass = self._bin_mass
            for b in range(self._lo_bin, self._hi_bin + 1):
                mass[b] = 0.0
            self._lo_bin, self._hi_bin = 0, -1
            self.flows = 0.0
            return removed
        keep = 1.0 - fraction
        removed = self.flows * fraction
        mass = self._bin_mass
        for b in range(self._lo_bin, self._hi_bin + 1):
            mass[b] *= keep
        self.flows *= keep
        return removed

    def step(self, dt, rtt, loss_rate, drift_segments_per_sec, send_rate_cap=None):
        if dt <= 0.0 or self._hi_bin < 0:
            return 0.0
        bin_width = self.bin_width
        nbins = self.nbins
        top = nbins - 1
        mass = self._bin_mass
        new = [0.0] * nbins
        shift = drift_segments_per_sec * dt / bin_width
        whole = int(shift)
        frac = shift - whole
        loss_scale = loss_rate * dt / rtt
        cap_q = (
            loss_rate * send_rate_cap * dt if send_rate_cap is not None else None
        )
        loss_events = 0.0
        for b in range(self._lo_bin, self._hi_bin + 1):
            m = mass[b]
            if m <= 0.0:
                continue
            w = b * bin_width + 1
            q = loss_scale * w
            if cap_q is not None and q > cap_q:
                q = cap_q
            if q >= 1.0:
                q = 1.0
            if q > 0.0:
                halved = m * q
                loss_events += halved
                m -= halved
                half_bin = (max(1, w >> 1) - 1) // bin_width
                new[half_bin] += halved
            if m <= 0.0:
                continue
            target = b + whole
            if target >= top:
                new[top] += m
            else:
                new[target] += m * (1.0 - frac)
                new[target + 1] += m * frac
        lowest = (max(1, (self._lo_bin * bin_width + 1) >> 1) - 1) // bin_width
        highest = min(top, self._hi_bin + whole + 1)
        self._bin_mass = new
        self._window_total = None
        self._retighten(lowest, highest)
        return loss_events

    def _retighten(self, first, last):
        mass = self._bin_mass
        lo, hi, total = 0, -1, 0.0
        for b in range(first, last + 1):
            m = mass[b]
            if m > 1e-12:
                if hi < 0:
                    lo = b
                hi = b
                total += m
            elif m > 0.0:
                mass[b] = 0.0
        self._lo_bin, self._hi_bin = lo, hi
        self.flows = total

    def total_window_segments(self):
        if self._hi_bin < 0:
            return 0.0
        total = self._window_total
        if total is None:
            bin_width = self.bin_width
            mass = self._bin_mass
            total = self._window_total = sum(
                mass[b] * (b * bin_width + 1)
                for b in range(self._lo_bin, self._hi_bin + 1)
            )
        return total

    def total_send_segments_per_sec(self, rtt, send_rate_cap=None):
        if self._hi_bin < 0:
            return 0.0
        if send_rate_cap is None:
            return self.total_window_segments() / rtt
        bin_width = self.bin_width
        mass = self._bin_mass
        total = 0.0
        for b in range(self._lo_bin, self._hi_bin + 1):
            rate = (b * bin_width + 1) / rtt
            if rate > send_rate_cap:
                rate = send_rate_cap
            total += mass[b] * rate
        return total

    def sample_windows(self, count):
        if self._hi_bin < 0:
            return [1] * count
        samples = []
        mass = self._bin_mass
        total = self.flows
        b = self._lo_bin
        cum = mass[b]
        for i in range(count):
            target = (i + 0.5) / count * total
            while cum < target and b < self._hi_bin:
                b += 1
                cum += mass[b]
            samples.append(self.bin_to_window(b))
        return samples


class FivePassPopulation:
    """The reference cohort: PR 14's ``step`` and ``sample_ages``, verbatim."""

    def __init__(
        self, rtt, target_flows, entry_window, max_window, bin_width,
        growth, send_cap, churn, mss=1460, created_at=0.0,
    ):
        self.rtt = float(rtt)
        self.mss = int(mss)
        self.distribution = FivePassDistribution(max_window, bin_width)
        self.target_flows = float(target_flows)
        self.growth_segments_per_sec = growth
        self.send_segments_per_flow_per_sec = send_cap
        self.churn_per_flow_per_sec = float(churn)
        self.created_at = float(created_at)
        self.segments_sent_total = 0.0
        self.segments_retx_total = 0.0
        self.bytes_acked_total = 0.0
        self.loss_events_total = 0.0
        self.steps = 0
        self.distribution.add_mass(entry_window, self.target_flows)

    def offered_bps(self):
        rate = self.distribution.total_send_segments_per_sec(
            self.rtt, self.send_segments_per_flow_per_sec
        )
        return rate * self.mss * 8.0

    def step(self, dt, loss_rate, entry_window):
        dist = self.distribution
        loss_events = dist.step(
            dt,
            self.rtt,
            loss_rate,
            self.growth_segments_per_sec,
            self.send_segments_per_flow_per_sec,
        )
        if self.churn_per_flow_per_sec > 0.0:
            departing = 1.0 - math.exp(-self.churn_per_flow_per_sec * dt)
            dist.remove_fraction(departing)
        deficit = self.target_flows - dist.flows
        if deficit > 0.0:
            dist.add_mass(entry_window, deficit)
        sent = (
            dist.total_send_segments_per_sec(
                self.rtt, self.send_segments_per_flow_per_sec
            )
            * dt
        )
        retx = loss_events
        self.segments_sent_total += sent + retx
        self.segments_retx_total += retx
        self.loss_events_total += loss_events
        self.bytes_acked_total += sent * self.mss
        self.steps += 1

    def sample_ages(self, count, now):
        lifetime = max(0.0, now - self.created_at)
        rate = self.churn_per_flow_per_sec
        if rate <= 0.0:
            return [lifetime] * count
        ages = []
        for i in range(count):
            q = (i + 0.5) / count
            ages.append(min(lifetime, -math.log(1.0 - q) / rate))
        return ages


def counters_of(population):
    return (
        population.segments_sent_total,
        population.segments_retx_total,
        population.bytes_acked_total,
        population.loss_events_total,
        population.steps,
    )


#: (growth seg/s, send cap, churn /s) per cohort shape.  At dt 0.25/0.5
#: growth 0.3 keeps ``whole`` at 0 for both bin widths and 40 makes it
#: 2..20 bins; churn 400 makes ``departing`` round to exactly 1.0.
COHORT_SHAPES = [
    (0.0, None, 0.0),
    (0.3, None, 0.02),
    (40.0, None, 0.5),
    (2.0, 5.0, 0.02),
    (40.0, 5.0, 400.0),
    (9.0, 400.0, 0.0),
    (0.3, None, 400.0),
]


@pytest.mark.parametrize("bin_width", [1, 4])
@pytest.mark.parametrize("shape", range(len(COHORT_SHAPES)))
def test_cohort_step_matches_five_pass_reference(shape, bin_width):
    growth, cap, churn = COHORT_SHAPES[shape]
    rng = random.Random(1000 * shape + bin_width)
    rtt = rng.choice((0.01, 0.08, 0.3))
    shipped = FluidPopulation(
        "p", rtt=rtt, target_flows=900.0, entry_window=10,
        bin_width=bin_width, growth_segments_per_sec=growth,
        send_segments_per_flow_per_sec=cap, churn_per_flow_per_sec=churn,
        created_at=3.0,
    )
    reference = FivePassPopulation(
        rtt, 900.0, 10, MAX_WINDOW, bin_width, growth, cap, churn, created_at=3.0
    )
    assert 1.0 - math.exp(-400.0 * 0.25) == 1.0
    now = 3.0
    entry = 10
    saturated = emptied = slivers = False
    for step in range(160):
        if step % 40 == 20:
            # A Riptide install (or its expiry) moves the entry window.
            entry = rng.choice((1, 10, 46, 100, MAX_WINDOW, 500))
        # Loss: none, the link model's floor, congestion, the congestion
        # cap, and a downed link, where every bin's ``q`` saturates at 1.
        loss = rng.choice((0.0, 0.0, 1e-4, 1e-4, 0.02, 0.5, 1.0))
        dt = rng.choice((0.25, 0.5, 0.5, 0.0))
        poke = rng.choice(("none",) * 8 + ("sliver", "empty"))
        sliver_window = rng.choice((1, 60, MAX_WINDOW))
        for population in (shipped, reference):
            if poke == "sliver":
                # Mass that a lossy or drifting step splits into pieces
                # below the trim threshold.
                population.distribution.add_mass(sliver_window, 1.5e-12)
            elif poke == "empty" and population is shipped:
                empty(population.distribution)
            elif poke == "empty":
                population.distribution.remove_fraction(1.0)
            population.step(dt, loss, entry)
        now += dt
        saturated |= loss == 1.0 and dt > 0.0 and poke != "empty"
        emptied |= poke == "empty"
        slivers |= poke == "sliver"
        assert state_of(shipped.distribution) == state_of(reference.distribution)
        assert counters_of(shipped) == counters_of(reference)
        assert shipped.offered_bps() == reference.offered_bps()
        assert (
            shipped.distribution.sample_windows(8)
            == reference.distribution.sample_windows(8)
        )
        for count in (8, 3):
            assert shipped.sample_ages(count, now) == reference.sample_ages(count, now)
    assert saturated and emptied and slivers


def test_departing_everything_then_refilling_matches_reference():
    """``departing >= 1``: the cohort empties and re-enters at the entry window."""
    shipped = FluidPopulation(
        "p", rtt=0.1, target_flows=50.0, entry_window=10,
        growth_segments_per_sec=8.0, churn_per_flow_per_sec=400.0,
    )
    reference = FivePassPopulation(0.1, 50.0, 10, MAX_WINDOW, 1, 8.0, None, 400.0)
    for entry in (10, 10, 64, 64, 3):
        for population in (shipped, reference):
            population.step(0.25, 0.01, entry)
        assert state_of(shipped.distribution) == state_of(reference.distribution)
        assert counters_of(shipped) == counters_of(reference)
        assert shipped.distribution.sample_windows(8) == [entry] * 8
