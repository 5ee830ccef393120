"""Ablation: user-space routes vs the Section V kernel implementation.

The paper predicts a kernel-mode Riptide "would likely reduce load, as
an external program no longer has to monitor all open connections, and
potentially enable higher granularity computations ... per connection
basis, rather than per route."  Both variants run the same Algorithm 1
here; the ablation compares their side effects: route-table churn and
the resulting transfer times (which must be identical — the mechanism
differs, the policy does not).
"""

from repro.core.agent import RiptideAgent
from repro.core.config import RiptideConfig
from repro.core.kernel_mode import KernelModeAgent
from repro.tcp.constants import TcpConfig
from repro.testing import TwoHostTestbed, request_response


def run_arm(agent_cls) -> dict:
    bed = TwoHostTestbed(
        rtt=0.100,
        client_config=TcpConfig(default_initrwnd=300),
        server_config=TcpConfig(default_initrwnd=300),
    )
    bed.serve_echo()
    agent = agent_cls(bed.server, RiptideConfig(update_interval=0.5))
    agent.start()
    # Teach, then measure a cold transfer.
    request_response(bed, response_bytes=1_000_000)
    bed.sim.run(until=bed.sim.now + 3.0)
    for sock in list(bed.client.sockets()):
        sock.close()
    bed.sim.run(until=bed.sim.now + 1.0)
    cold = request_response(bed, response_bytes=100_000)
    return {
        "cold_time": cold.total_time,
        "route_commands": bed.server.ip.commands_issued,
        "route_entries": len(bed.server.route_table),
    }


def run_ablation() -> dict:
    return {
        "user_space": run_arm(RiptideAgent),
        "kernel_mode": run_arm(KernelModeAgent),
    }


def test_ablation_kernel_mode():
    result = run_ablation()
    print("\nAblation: user-space routes vs kernel hook")
    for name, data in result.items():
        print(
            f"  {name}: cold 100KB {data['cold_time'] * 1000:.0f}ms, "
            f"ip commands {data['route_commands']}, "
            f"routes {data['route_entries']}"
        )
    # Identical policy -> identical transfer outcome.
    assert result["kernel_mode"]["cold_time"] == result["user_space"]["cold_time"]
    # The kernel variant never touches the route table.
    assert result["kernel_mode"]["route_commands"] == 0
    assert result["kernel_mode"]["route_entries"] == 0
    assert result["user_space"]["route_commands"] > 0
