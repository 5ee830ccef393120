"""Unit tests for the transfer service and its connection pool."""

import pytest

from repro.cdn.transfer import TransferClient, TransferServer
from repro.testing import TwoHostTestbed


@pytest.fixture
def bed():
    testbed = TwoHostTestbed(rtt=0.100)
    TransferServer(testbed.server)
    return testbed


@pytest.fixture
def client(bed):
    return TransferClient(bed.client)


class TestBasicFetch:
    def test_fetch_completes(self, bed, client):
        result = client.fetch(bed.server.address, 50_000)
        bed.sim.run(until=5.0)
        assert result.completed
        assert result.total_time > 0
        assert client.transfers_completed == 1

    def test_callback_invoked(self, bed, client):
        seen = []
        client.fetch(bed.server.address, 10_000, on_complete=seen.append)
        bed.sim.run(until=5.0)
        assert len(seen) == 1
        assert seen[0].completed

    def test_first_fetch_opens_connection(self, bed, client):
        result = client.fetch(bed.server.address, 1_000)
        bed.sim.run(until=5.0)
        assert result.new_connection
        assert client.connections_opened == 1

    def test_initial_cwnd_recorded(self, bed, client):
        result = client.fetch(bed.server.address, 1_000)
        bed.sim.run(until=5.0)
        assert result.initial_cwnd == 10

    def test_total_time_before_completion_raises(self, bed, client):
        result = client.fetch(bed.server.address, 1_000)
        with pytest.raises(ValueError):
            _ = result.total_time


class TestConnectionReuse:
    def test_sequential_fetches_reuse(self, bed, client):
        client.fetch(bed.server.address, 1_000)
        bed.sim.run(until=2.0)
        second = client.fetch(bed.server.address, 1_000)
        bed.sim.run(until=4.0)
        assert not second.new_connection
        assert client.connections_reused == 1
        assert len(client._pool.get(bed.server.address, [])) == 1

    def test_parallel_fetches_open_parallel_connections(self, bed, client):
        first = client.fetch(bed.server.address, 100_000)
        second = client.fetch(bed.server.address, 100_000)
        bed.sim.run(until=10.0)
        assert first.completed and second.completed
        assert first.new_connection and second.new_connection
        assert client.connections_opened == 2

    def test_reused_fetch_is_faster(self, bed, client):
        cold = client.fetch(bed.server.address, 1_000)
        bed.sim.run(until=2.0)
        warm = client.fetch(bed.server.address, 1_000)
        bed.sim.run(until=4.0)
        # Warm skips the handshake RTT.
        assert warm.total_time < cold.total_time

    def test_close_idle_connections(self, bed, client):
        client.fetch(bed.server.address, 1_000)
        bed.sim.run(until=2.0)
        closed = client.close_idle_connections()
        bed.sim.run(until=4.0)
        assert closed == 1
        assert len(client._pool.get(bed.server.address, [])) == 0

    def test_close_busy_connection_skipped(self, bed, client):
        client.fetch(bed.server.address, 500_000)
        bed.sim.run(until=0.15)  # handshake done, transfer in flight
        assert client.close_idle_connections() == 0

    def test_probabilistic_close(self, bed, client):
        import random

        for _ in range(1):
            client.fetch(bed.server.address, 1_000)
        bed.sim.run(until=2.0)
        # probability 0 closes nothing
        assert client.close_idle_connections(probability=0.0, rng=random.Random(1)) == 0
        assert client.close_idle_connections(probability=1.0, rng=random.Random(1)) == 1

    def test_probabilistic_close_requires_rng(self, bed, client):
        with pytest.raises(ValueError):
            client.close_idle_connections(probability=0.5)


class TestServer:
    def test_serves_and_counts(self, bed, client):
        client.fetch(bed.server.address, 30_000)
        bed.sim.run(until=5.0)
        # Grab the server object created in the fixture indirectly: it
        # registered a listener; re-create a reference via a new fetch.
        assert client.transfers_completed == 1

    def test_server_closes_on_client_fin(self, bed, client):
        client.fetch(bed.server.address, 1_000)
        bed.sim.run(until=2.0)
        client.close_idle_connections()
        bed.sim.run(until=4.0)
        assert len(bed.server.sockets()) == 0

    def test_ignores_malformed_requests(self, bed):
        done = []
        sock = bed.client.connect(
            bed.server.address,
            8080,
            on_established=lambda s: s.send_message("not-a-request", 100),
            on_message=lambda s, payload, size: done.append(payload),
        )
        bed.sim.run(until=2.0)
        assert done == []
        assert sock.is_established


class TestFailures:
    def test_error_fails_inflight_transfer(self, bed, client):
        failures = []
        result = client.fetch(
            bed.server.address, 500_000, on_complete=failures.append
        )
        bed.sim.run(until=0.3)
        # Abort the underlying socket mid-transfer.
        for sock in bed.client.sockets():
            sock.abort()
        bed.sim.run(until=2.0)
        assert not result.completed
        assert result.failed_reason is not None
        assert client.transfers_failed == 1
        assert failures and failures[0] is result

    def test_pool_recovers_after_failure(self, bed, client):
        client.fetch(bed.server.address, 500_000)
        bed.sim.run(until=0.3)
        for sock in bed.client.sockets():
            sock.abort()
        bed.sim.run(until=1.0)
        retry = client.fetch(bed.server.address, 10_000)
        bed.sim.run(until=5.0)
        assert retry.completed
