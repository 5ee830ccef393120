"""Parallel execution must be indistinguishable from serial execution.

These tests run real simulations both ways and require byte-identical
measurements — not approximate agreement.  This is the property that
makes ``--workers N`` safe to use on any experiment.
"""

import pytest

from repro.experiments.scenarios import (
    ProbeStudyConfig,
    StudyRun,
    StudySummary,
    run_paired_probe_study,
)
from repro.obs.instrument import capture
from repro.parallel.executor import WorkerFailure, fork_available, run_tasks

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)

#: Small but real: 3 PoPs spanning near/far RTTs, seconds of traffic.
TINY_STUDY = ProbeStudyConfig(
    topology_codes=("LHR", "JFK", "NRT"),
    warmup=2.0,
    duration=8.0,
    probe_interval=4.0,
)


def _transfer_time(seed: int) -> float:
    from repro.testing import TwoHostTestbed, request_response

    bed = TwoHostTestbed(rtt=0.080, seed=seed)
    bed.serve_echo()
    return request_response(bed, response_bytes=80_000).total_time


class TestSweepSeeds:
    @needs_fork
    def test_parallel_sweep_bit_identical_to_serial(self):
        tasks = [lambda seed=seed: _transfer_time(seed) for seed in (1, 2, 3, 4, 5)]
        serial = run_tasks(tasks, workers=1)
        parallel = run_tasks(tasks, workers=4)
        assert parallel == serial  # bit-for-bit, same order

    @needs_fork
    def test_failing_seed_surfaces_with_its_label(self):
        def metric(seed: int) -> float:
            if seed == 3:
                raise ValueError("seed 3 exploded")
            return float(seed)

        seeds = [1, 2, 3, 4]
        with pytest.raises(WorkerFailure, match=r"m\[seed=3\]") as info:
            run_tasks(
                [lambda seed=seed: metric(seed) for seed in seeds],
                workers=2,
                labels=[f"m[seed={seed}]" for seed in seeds],
            )
        assert info.value.original_type == "ValueError"
        assert "seed 3 exploded" in str(info.value)


class TestPairedProbeStudy:
    @needs_fork
    def test_parallel_arms_match_serial_measurements(self):
        serial_control, serial_riptide = run_paired_probe_study(TINY_STUDY)
        assert isinstance(serial_control, StudyRun)
        control, riptide = run_paired_probe_study(TINY_STUDY, workers=2)
        assert isinstance(control, StudySummary)
        assert not control.riptide_enabled and riptide.riptide_enabled
        for parallel_arm, serial_arm in (
            (control, serial_control),
            (riptide, serial_riptide),
        ):
            assert (
                parallel_arm.fleet.completion_times()
                == serial_arm.fleet.completion_times()
            )
            assert parallel_arm.fleet.rounds_issued == serial_arm.fleet.rounds_issued
            assert len(parallel_arm.fleet) == len(serial_arm.fleet.results)
            assert (
                parallel_arm.events_processed
                == serial_arm.cluster.sim.events_processed
            )
            assert parallel_arm.learned_routes == sum(
                len(agent.learned_table())
                for agent in serial_arm.cluster.all_agents()
            )

    @needs_fork
    def test_parallel_merged_metrics_match_serial(self):
        with capture() as serial_obs:
            run_paired_probe_study(TINY_STUDY)
        with capture() as parallel_obs:
            run_paired_probe_study(TINY_STUDY, workers=2)

        serial_counters = {
            (c.name, c.labels): c.value for c in serial_obs.metrics.counters()
        }
        parallel_counters = {
            (c.name, c.labels): c.value for c in parallel_obs.metrics.counters()
        }
        assert parallel_counters == serial_counters

        serial_hists = {
            (h.name, h.labels): h.values() for h in serial_obs.metrics.histograms()
        }
        parallel_hists = {
            (h.name, h.labels): h.values() for h in parallel_obs.metrics.histograms()
        }
        assert parallel_hists == serial_hists

        assert parallel_obs.trace.totals() == serial_obs.trace.totals()


class TestObservabilityDeterminism:
    """The flow/span/timeline stores and the attribution report must be
    byte-identical between a serial run and a merged parallel run —
    this is what makes ``repro flows``/``repro report --workers N``
    trustworthy."""

    @needs_fork
    def test_merged_stores_and_report_bit_identical(self):
        from repro.analysis.export import flows_to_json, spans_to_chrome_json, timeline_to_csv
        from repro.experiments.chaos import ChaosStudyConfig, run_chaos_study
        from repro.obs.report import build_report, report_to_json

        config = ChaosStudyConfig(warmup=5.0, duration=20.0)
        with capture() as serial_obs:
            run_chaos_study(config)
        with capture() as parallel_obs:
            run_chaos_study(config, workers=2)

        assert flows_to_json(parallel_obs.flows) == flows_to_json(serial_obs.flows)
        assert spans_to_chrome_json(parallel_obs.spans) == spans_to_chrome_json(
            serial_obs.spans
        )
        assert timeline_to_csv(parallel_obs.timeline) == timeline_to_csv(
            serial_obs.timeline
        )
        serial_report = report_to_json(
            build_report(serial_obs, experiment="chaos_lossy_agent")
        )
        parallel_report = report_to_json(
            build_report(parallel_obs, experiment="chaos_lossy_agent")
        )
        assert parallel_report == serial_report


class TestChaosStudy:
    @needs_fork
    def test_fault_injected_arms_bit_identical_to_serial(self):
        from repro.experiments.chaos import ChaosStudyConfig, run_chaos_study

        config = ChaosStudyConfig(warmup=5.0, duration=20.0)
        serial = run_chaos_study(config)
        parallel = run_chaos_study(config, workers=2)
        for par, ser in (
            (parallel.control, serial.control),
            (parallel.riptide, serial.riptide),
        ):
            assert par.fleet.completion_times() == ser.fleet.completion_times()
            assert par.events_processed == ser.events_processed
            assert par.faults_injected == ser.faults_injected
            assert par.faults_cleared == ser.faults_cleared
            assert par.guard_trips == ser.guard_trips
            assert par.crashes == ser.crashes
            assert par.poll_failures == ser.poll_failures
            assert par.tool_errors == ser.tool_errors
            assert par.learned_routes == ser.learned_routes
        assert parallel.median_gain() == serial.median_gain()


class TestFig10Sweep:
    @needs_fork
    def test_parallel_cmax_sweep_bit_identical(self):
        from repro.experiments import fig10_cmax_sweep

        kwargs = dict(
            c_max_values=(50, 100),
            topology_codes=("LHR", "JFK", "NRT"),
            duration=8.0,
            warmup=2.0,
        )
        serial = fig10_cmax_sweep.run(**kwargs)
        parallel = fig10_cmax_sweep.run(workers=3, **kwargs)
        assert set(parallel.cdfs) == set(serial.cdfs)
        for key in serial.cdfs:
            assert parallel.cdfs[key].values == serial.cdfs[key].values

    def test_failing_arm_is_named_on_the_serial_path(self, monkeypatch):
        from repro.experiments import fig10_cmax_sweep

        def run_single(c_max, topology, duration, warmup):
            if c_max == 100:
                raise RuntimeError("arm exploded")

        monkeypatch.setattr(fig10_cmax_sweep, "run_single", run_single)
        with pytest.raises(WorkerFailure, match=r"fig10:c_max=100") as info:
            fig10_cmax_sweep.run(c_max_values=(50, 100), workers=1)
        assert info.value.original_type == "RuntimeError"


class TestHashSeedIndependence:
    def test_metrics_and_trace_bytes_equal_under_two_hash_seeds(self):
        """No output may depend on ``str``/``bytes`` hashing.

        Set iteration order over strings changes with ``PYTHONHASHSEED``;
        the goldens only ever see the one seed pytest happened to start
        with.  Two child interpreters with different fixed seeds must
        print the same metric table and trace — every recorded event in
        kernel order, the output most sensitive to who scheduled first —
        byte for byte.
        """
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        children = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "metrics", "chaos_lossy_agent",
                 "--fast", "--json"],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            )
            for seed in ("1", "2")
        ]
        outputs = []
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err.decode()
            outputs.append(out)
        assert outputs[0], "metrics printed nothing"
        assert outputs[0] == outputs[1], (
            "hash-seed dependent: `repro metrics chaos_lossy_agent --fast "
            "--json` differs between PYTHONHASHSEED=1 and PYTHONHASHSEED=2"
        )
