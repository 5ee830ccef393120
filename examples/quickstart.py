#!/usr/bin/env python3
"""Quickstart: watch Riptide jump-start a connection.

Two hosts, one 100 ms wide-area path.  A first (cold) 100 KB transfer
pays full TCP slow start from the default 10-segment window.  Riptide on
the server observes the connection's grown window, installs a learned
``initcwnd`` route (the paper's Figure 8 command), and the next cold
transfer completes in a single round trip.

Run:  python examples/quickstart.py
"""

from repro.core.agent import RiptideAgent
from repro.core.config import RiptideConfig
from repro.tcp.constants import TcpConfig
from repro.testing import TwoHostTestbed, request_response


def main() -> None:
    bed = TwoHostTestbed(
        rtt=0.100,
        bandwidth_bps=1e9,
        # Raise the initial receive window to cover c_max (Section III-C).
        client_config=TcpConfig(default_initrwnd=300),
        server_config=TcpConfig(default_initrwnd=300),
    )
    bed.serve_echo()

    print("== Riptide quickstart ==")
    print(f"path: {bed.trunk.rtt * 1000:.0f} ms RTT, 1 Gbps\n")

    # --- 1. cold transfer without Riptide --------------------------------
    cold = request_response(bed, response_bytes=100_000)
    print(
        f"cold 100 KB transfer (default IW10):   {cold.total_time * 1000:6.0f} ms"
    )

    # --- 2. start Riptide on the server ----------------------------------
    agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
    agent.start()
    # Organic traffic grows a window Riptide can learn from.
    request_response(bed, response_bytes=1_000_000)
    bed.sim.run(until=bed.sim.now + 2.0)

    print("\nserver route table after learning:")
    for line in bed.server.ip.route_show():
        print(f"  ip route: {line}")
    print(f"learned table: {agent.learned_table().windows()}\n")

    # --- 3. cold transfer with the learned window ------------------------
    # Close pooled connections so the next fetch is genuinely cold.
    for sock in list(bed.client.sockets()):
        sock.close()
    bed.sim.run(until=bed.sim.now + 1.0)

    learned_initcwnd = bed.server.initcwnd_for(bed.client.address)
    warm_start = request_response(bed, response_bytes=100_000)
    print(
        f"cold 100 KB transfer (Riptide initcwnd={learned_initcwnd}"
        f" on server): {warm_start.total_time * 1000:6.0f} ms"
    )
    gain = 1.0 - warm_start.total_time / cold.total_time
    print(f"\nimprovement: {gain:.0%} "
          f"({cold.total_time * 1000:.0f} ms -> {warm_start.total_time * 1000:.0f} ms)")


if __name__ == "__main__":
    main()
