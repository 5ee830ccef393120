"""Ablation: destination granularity (/32 host routes vs prefix routes).

Section III-B "Destinations as Routes": grouping a whole remote PoP under
one prefix route shares learned state across its hosts and shrinks the
route table.  This ablation fetches from a host the learning agent never
served before — only the prefix mode can jump-start that connection.
"""

from repro.cdn.cluster import CdnCluster, ClusterConfig, with_riptide_config
from repro.cdn.topology import Topology, build_paper_topology


def run_arm(granularity: str) -> dict:
    full = build_paper_topology(servers_per_pop=3)
    topo = Topology(pops=tuple(p for p in full.pops if p.code in ("LHR", "JFK")))
    cluster = CdnCluster(
        topo,
        with_riptide_config(
            ClusterConfig(seed=21), granularity=granularity
        ),
    )
    # Organic traffic teaches JFK's host 0 about LHR's host 0 only.
    cluster.add_organic_workload("LHR", ["JFK"])
    cluster.start_riptide()
    cluster.run(25.0)
    # A brand-new consumer: LHR host 2 cold-fetches 100 KB from JFK.
    result = cluster.client("LHR", 2).fetch(cluster.server_address("JFK"), 100_000)
    cluster.run(10.0)
    assert result.completed
    routes = len(cluster.hosts("JFK")[0].route_table)
    return {"time": result.total_time, "routes": routes}


def run_ablation() -> dict:
    return {g: run_arm(g) for g in ("host", "prefix")}


def test_ablation_granularity():
    result = run_ablation()
    print("\nAblation: granularity")
    for name, data in result.items():
        print(
            f"  {name}: cold fetch from unseen host "
            f"{data['time'] * 1000:.0f}ms, routes installed {data['routes']}"
        )
    # Prefix routes jump-start connections to hosts never seen before.
    assert result["prefix"]["time"] < result["host"]["time"]
    # And they need no more FIB entries than host routes.
    assert result["prefix"]["routes"] <= result["host"]["routes"]
