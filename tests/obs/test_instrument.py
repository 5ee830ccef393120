"""Tests for instrumentation wiring: sim.obs, capture() and hot paths."""

from repro.obs.instrument import Instrumentation, active_instrumentation, capture
from repro.sim.kernel import Simulator
from repro.testing import TwoHostTestbed, request_response


class TestCapture:
    def test_no_context_means_private_instrumentation(self):
        assert active_instrumentation() is None
        first, second = Simulator(), Simulator()
        assert first.obs is not second.obs

    def test_simulators_in_capture_share_one_instrumentation(self):
        with capture() as instrumentation:
            first, second = Simulator(), Simulator()
        assert first.obs is instrumentation
        assert second.obs is instrumentation
        assert active_instrumentation() is None

    def test_capture_contexts_nest(self):
        with capture() as outer:
            with capture() as inner:
                assert Simulator().obs is inner
            assert Simulator().obs is outer


class TestTsdbAndAlerts:
    def test_every_instrumentation_bundles_tsdb_and_alert_log(self):
        instrumentation = Instrumentation()
        assert instrumentation.tsdb.recorded == 0
        assert len(instrumentation.alerts) == 0

    def test_merge_folds_tsdb_and_alerts(self):
        from repro.obs.slo import BurnRateRule

        rule = BurnRateRule(
            severity="page", long_window=10.0, short_window=5.0, burn_factor=1.0
        )
        worker = Instrumentation()
        worker.tsdb.record(1.0, "h", "sig", 2.0)
        worker.alerts.begin(1.0, "slo", "page", "h", rule)
        target = Instrumentation()
        target.alerts.begin(0.5, "slo", "page", "g", rule)
        target.merge_from(worker)
        assert [p.value for p in target.tsdb.points()] == [2.0]
        assert [e.alert_id for e in target.alerts.episodes()] == [0, 1]


class TestInstrumentedRun:
    """One end-to-end transfer populates every layer's instruments."""

    def test_sim_tcp_and_link_metrics_populate(self):
        with capture() as instrumentation:
            bed = TwoHostTestbed(rtt=0.050, bandwidth_bps=1e9)
            bed.serve_echo()
            request_response(bed, response_bytes=100_000)
        metrics = instrumentation.metrics
        assert bed.sim.events_processed > 0  # the kernel's own count, not a metric
        assert metrics.counter_value("tcp_connections_opened") == 2
        assert metrics.counter_value("link_packets_delivered") > 0
        assert metrics.counter_value("link_packets_dropped_loss") == 0

    def test_connection_open_is_traced_with_initial_window(self):
        with capture() as instrumentation:
            bed = TwoHostTestbed(rtt=0.050, bandwidth_bps=1e9)
            bed.serve_echo()
            request_response(bed, response_bytes=10_000)
        from repro.obs.trace import EventType

        opened = [e for e in instrumentation.trace.events() if e.type is EventType.CONN_OPENED]
        assert opened
        assert all(event.detail("initial_cwnd") is not None for event in opened)
