"""Differential validation of the hybrid traffic engine.

The acceptance contract for `repro.experiments.hybrid`: at small scale,
packet-granular and fluid background traffic must agree on what Riptide
learns and on the Figure 3/6 probe anchors, across seeds, with both
modes bit-stable under forked workers.
"""

from dataclasses import replace

import pytest

from repro.experiments.hybrid import (
    DIFFERENTIAL_POP_CODES,
    HybridDifferentialResult,
    HybridScaleConfig,
    HybridStudyConfig,
    differential_arm,
    mean_object_segments,
    run_arm,
    run_differential,
    run_scale,
)
from repro.experiments.scenarios import run_arm_pair

#: Seeds the agreement tolerances are held across (>= 3 per the issue).
AGREEMENT_SEEDS = (7, 42, 43)

#: Worst-case relative disagreement of learned per-destination windows.
ADVISORY_TOLERANCE = 0.15
#: Worst-case relative disagreement of probe completion-time medians
#: per (size, RTT bucket) — the Figure 6 anchor.
MEDIAN_TOLERANCE = 0.20
#: Worst-case absolute disagreement of the fraction of probes finishing
#: within ~2 path RTTs — the Figure 3 anchor.
FIRST_RTT_TOLERANCE = 0.20


@pytest.fixture(scope="module", params=AGREEMENT_SEEDS)
def differential(request):
    config = replace(HybridStudyConfig(), seed=request.param)
    return run_differential(config)


class TestDifferentialAgreement:
    def test_both_arms_learn_every_destination(self, differential):
        pairs = differential.advisory_pairs()
        # 3 PoPs, host 0's agent sees the 2 remote prefixes each.
        expected = len(DIFFERENTIAL_POP_CODES) * (
            len(DIFFERENTIAL_POP_CODES) - 1
        )
        assert len(pairs) == expected
        for packet_window, hybrid_window in pairs.values():
            assert packet_window > 0, "packet arm failed to learn"
            assert hybrid_window > 0, "hybrid arm failed to learn"

    def test_advisories_converge_within_tolerance(self, differential):
        assert differential.advisory_max_rel_delta() <= ADVISORY_TOLERANCE, (
            differential.report()
        )

    def test_fig6_anchor_probe_medians_agree(self, differential):
        deltas = differential.anchor_median_deltas()
        assert deltas, "no overlapping probe cells to compare"
        assert differential.anchor_max_rel_delta() <= MEDIAN_TOLERANCE, (
            differential.report()
        )

    def test_fig3_anchor_first_rtt_fractions_agree(self, differential):
        assert (
            differential.first_window_fraction_delta() <= FIRST_RTT_TOLERANCE
        ), differential.report()

    def test_hybrid_arm_removes_packet_work(self, differential):
        """The point of the engine: same learning, far fewer events."""
        assert differential.hybrid.events_processed < (
            differential.packet.events_processed / 3
        )
        assert differential.hybrid.fluid_flows > 0
        assert differential.hybrid.fluid_steps > 0
        assert differential.packet.fluid_flows == 0.0

    def test_report_renders(self, differential):
        report = differential.report()
        assert "learned windows per destination" in report
        assert "advisory max delta" in report


class TestDeterminism:
    #: Shortened run: bit-stability does not need the convergence tail.
    CONFIG = replace(HybridStudyConfig(), warmup=6.0, duration=15.0)

    def test_workers_bit_stable(self):
        """Both arms summarise identically when forked, as other studies'
        arms run under ``--workers``."""
        serial = run_differential(self.CONFIG)
        packet, hybrid = run_arm_pair(
            "hybrid-study",
            tuple(differential_arm(self.CONFIG, mode) for mode in ("packet", "hybrid")),
            workers=2,
        )
        forked = HybridDifferentialResult(packet=packet, hybrid=hybrid)
        assert serial.packet.advisories == forked.packet.advisories
        assert serial.hybrid.advisories == forked.hybrid.advisories
        assert (
            serial.packet.events_processed == forked.packet.events_processed
        )
        assert (
            serial.hybrid.events_processed == forked.hybrid.events_processed
        )
        assert serial.hybrid.fluid_flows == forked.hybrid.fluid_flows

        def probe_rows(summary):
            return [
                (p.size_bytes, p.destination_pop, p.total_time)
                for p in summary.fleet.completed_results()
            ]

        assert probe_rows(serial.packet) == probe_rows(forked.packet)
        assert probe_rows(serial.hybrid) == probe_rows(forked.hybrid)

    def test_same_seed_same_arm_reproduces(self):
        a = run_arm(self.CONFIG, "hybrid")
        b = run_arm(self.CONFIG, "hybrid")
        assert a.advisories == b.advisories
        assert a.events_processed == b.events_processed
        assert a.fluid_flows == b.fluid_flows

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            run_arm(self.CONFIG, "quantum")


class TestParameterDerivation:
    def test_mean_object_segments_caps_at_max(self):
        from repro.cdn.filesizes import FileSizeDistribution

        sizes = FileSizeDistribution.production_cdn()
        capped = mean_object_segments(sizes, max_object_bytes=50_000)
        uncapped = mean_object_segments(sizes, max_object_bytes=10**9)
        assert 1.0 < capped < uncapped
        # Cap of 50 KB = ~35 segments is a hard ceiling on the mean.
        assert capped <= 35

    def test_deterministic(self):
        from repro.cdn.filesizes import FileSizeDistribution

        sizes = FileSizeDistribution.production_cdn()
        assert mean_object_segments(sizes, 120_000) == mean_object_segments(
            sizes, 120_000
        )


class TestScaleScenario:
    #: Tiny scale config: full 34-PoP topology, miniature population.
    CONFIG = HybridScaleConfig(flows_per_pair=50.0, warmup=2.0, duration=6.0)

    def test_reduced_run_carries_every_pair(self):
        result = run_scale(self.CONFIG)
        assert result.pops == 34
        assert result.populations == 34 * 33
        assert result.flows_min == pytest.approx(34 * 33 * 50.0, rel=1e-6)
        assert result.fluid_steps > 0
        assert result.probes_completed > 0
        assert result.learned_routes > 0
        assert not result.sustained_million_flows
        report = result.report()
        assert "34" in report and ">= 10^6 open flows" in report

    def test_fast_entry_runs_run_scale_on_a_reduced_config(self):
        from repro.experiments.registry import get_experiment

        experiment = get_experiment("hybrid")
        assert experiment.run is run_scale
        config = experiment.fast["config"]
        assert (config.flows_per_pair, config.warmup, config.duration) == (100.0, 3.0, 10.0)

    def test_registered_in_the_experiment_registry(self):
        from repro.experiments.registry import get_experiment

        experiment = get_experiment("hybrid")
        assert experiment.simulation_backed
        assert "10^6" in experiment.description
