"""The Figure 10/11 cwnd sampler: population filtering semantics."""

import pytest

from repro.cdn.monitors import CwndSampler
from repro.tcp.constants import TcpConfig
from repro.testing import TwoHostTestbed, request_response


def make_testbed():
    bed = TwoHostTestbed(
        rtt=0.05,
        client_config=TcpConfig(default_initrwnd=300),
        server_config=TcpConfig(default_initrwnd=300),
    )
    bed.serve_echo()
    return bed


class TestBasics:
    def test_requires_at_least_one_host(self):
        bed = make_testbed()
        with pytest.raises(ValueError, match="at least one host"):
            CwndSampler(bed.sim, [], interval=1.0)

    def test_samples_data_bearing_connections(self):
        bed = make_testbed()
        request_response(bed, response_bytes=200_000, deadline=5.0)
        sampler = CwndSampler(bed.sim, [bed.server], interval=1.0)
        sampler.start()
        bed.sim.run(until=bed.sim.now + 3.5)
        assert len(sampler.samples) >= 3
        assert sampler.cwnd_values() == [s.cwnd for s in sampler.samples]
        assert all(s.bytes_acked > 0 for s in sampler.samples)
        assert all(s.host_name == "server" for s in sampler.samples)

    def test_stop_halts_sampling(self):
        bed = make_testbed()
        request_response(bed, response_bytes=100_000, deadline=5.0)
        sampler = CwndSampler(bed.sim, [bed.server], interval=1.0)
        sampler.start()
        bed.sim.run(until=bed.sim.now + 2.5)
        sampler.stop()
        count = len(sampler.samples)
        assert count > 0
        bed.sim.run(until=bed.sim.now + 3.0)
        assert len(sampler.samples) == count


class TestCreatedAfter:
    """"We further consider only connections that were created after
    Riptide was started." — the paper's sampling methodology."""

    def test_older_connections_are_excluded(self):
        bed = make_testbed()
        # Connection A predates the threshold; B is created after it.
        request_response(bed, response_bytes=100_000, deadline=5.0)
        threshold = bed.sim.now
        request_response(bed, response_bytes=100_000, deadline=5.0)
        filtered = CwndSampler(
            bed.sim, [bed.server], interval=1.0, created_after=threshold
        )
        unfiltered = CwndSampler(bed.sim, [bed.server], interval=1.0)
        filtered.start()
        unfiltered.start()
        bed.sim.run(until=bed.sim.now + 3.5)
        # Both established connections linger on the server; the filter
        # halves the sampled population at every tick.
        assert len(filtered.samples) >= 1
        assert len(unfiltered.samples) == 2 * len(filtered.samples)


class TestDataBearingOnly:
    def test_idle_connections_are_skipped(self):
        bed = make_testbed()
        request_response(bed, response_bytes=100_000, deadline=5.0)
        # An established connection that never carries response data:
        # the server side has acked no payload bytes.
        bed.client.connect(bed.server.address, 80)
        bed.sim.run(until=bed.sim.now + 1.0)
        sampler = CwndSampler(bed.sim, [bed.server], interval=1.0)
        sampler.start()
        bed.sim.run(until=bed.sim.now + 3.5)
        rows = bed.server.ss.tcp_info()
        assert len(rows) == 2 and any(row.bytes_acked == 0 for row in rows)
        # One sample per poll: the data-bearing connection's only.
        assert len(sampler.samples) == 3
        assert all(s.bytes_acked > 0 for s in sampler.samples)
