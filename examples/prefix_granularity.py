#!/usr/bin/env python3
"""Destinations as routes: host vs prefix granularity (Section III-B).

Two PoPs; organic traffic only ever flows between one pair of machines.
A brand-new machine in the client PoP then cold-fetches 100 KB:

* with /32 host routes, the server has never seen that machine and the
  response starts at the default window;
* with a /16 prefix route, everything learned from the neighbour's
  traffic applies, and the fetch is jump-started.

Run:  python examples/prefix_granularity.py
"""

from repro.cdn.cluster import CdnCluster, ClusterConfig, with_riptide_config
from repro.cdn.topology import Topology, build_paper_topology


def run_arm(granularity: str) -> None:
    full = build_paper_topology(servers_per_pop=3)
    topo = Topology(pops=tuple(p for p in full.pops if p.code in ("LHR", "JFK")))
    cluster = CdnCluster(
        topo,
        with_riptide_config(
            ClusterConfig(seed=21), granularity=granularity
        ),
    )
    # Only LHR host 0 talks to JFK; hosts 1 and 2 are silent bystanders.
    cluster.add_organic_workload("LHR", ["JFK"])
    cluster.start_riptide()
    cluster.run(25.0)

    jfk_host = cluster.hosts("JFK")[0]
    print(f"--- granularity = {granularity} ---")
    print("JFK route table:")
    for line in jfk_host.ip.route_show():
        print(f"  {line}")

    result = cluster.client("LHR", 2).fetch(cluster.server_address("JFK"), 100_000)
    cluster.run(10.0)
    status = f"{result.total_time * 1000:.0f} ms" if result.completed else "FAILED"
    print(f"cold 100 KB fetch from never-seen LHR host 2: {status}\n")


def main() -> None:
    print("== host routes vs prefix routes ==\n")
    run_arm("host")
    run_arm("prefix")
    print(
        "With prefix routes, windows learned from *any* traffic to the\n"
        "remote PoP jump-start connections to *every* host in it."
    )


if __name__ == "__main__":
    main()
