#!/usr/bin/env python3
"""Operating Riptide: reboots, load shifts and conservatism advisories.

The paper motivates Riptide with operational reality (Section II-A):
machines reboot and forget everything, and load balancing tears down
connections.  Section V proposes feeding Riptide "higher level
information (e.g., the need to perform immediate load balancing)" to set
more conservative windows.  This example walks all three situations on a
two-host deployment.

Run:  python examples/operations_playbook.py
"""

from repro.core.agent import RiptideAgent
from repro.core.config import RiptideConfig
from repro.net.addresses import Prefix
from repro.tcp.constants import TcpConfig
from repro.testing import TwoHostTestbed, request_response


def show(bed, agent, label):
    key = Prefix.host(bed.client.address)
    learned = agent.learned_window_for(key)
    effective = bed.server.initcwnd_for(bed.client.address)
    print(f"{label:<46} learned={learned} effective initcwnd={effective}")


def main() -> None:
    bed = TwoHostTestbed(
        rtt=0.100,
        client_config=TcpConfig(default_initrwnd=300),
        server_config=TcpConfig(default_initrwnd=300),
    )
    bed.serve_echo()
    agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5, ttl=20.0))
    agent.start()

    print("== 1. steady state: learn from live traffic ==")
    request_response(bed, response_bytes=1_000_000)
    bed.sim.run(until=bed.sim.now + 2.0)
    show(bed, agent, "after a 1 MB transfer")

    print("\n== 2. load-balancing shift: advise conservatism ==")
    advisory = agent.advise_conservative(
        scale=0.5, duration=10.0, reason="shifting traffic from a drained PoP"
    )
    bed.sim.run(until=bed.sim.now + 2.0)
    show(bed, agent, f"advisory active ({advisory.reason})")
    bed.sim.run(until=bed.sim.now + 10.0)
    show(bed, agent, "advisory expired")

    print("\n== 3. reboot: all state lost, then relearned ==")
    bed.server.reboot()
    agent.stop(remove_routes=False)
    agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5, ttl=20.0))
    agent.start()
    bed.sim.run(until=bed.sim.now + 1.0)
    show(bed, agent, "immediately after reboot")
    request_response(bed, response_bytes=1_000_000)
    bed.sim.run(until=bed.sim.now + 2.0)
    show(bed, agent, "after the first post-reboot transfer")

    print("\n== 4. idle path: TTL expiry restores the default ==")
    for sock in list(bed.client.sockets()) + list(bed.server.sockets()):
        sock.vanish()
    bed.sim.run(until=bed.sim.now + 25.0)
    show(bed, agent, "25 s after all connections vanished (ttl=20)")
    print(f"\nagent counters: polls={agent.stats.polls} "
          f"installs={agent.stats.routes_installed} "
          f"expiries={agent.stats.routes_expired}")


if __name__ == "__main__":
    main()
