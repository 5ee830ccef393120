"""A ceiling on the bytes one trunk direction of the fabric costs.

The paper's deployment is a 34-PoP full mesh: 561 trunks, 1,122
directions, each a ``Link`` with its counters, its loss-model clone and
its entry in the fabric's tables.  Every 34-PoP experiment builds all of
them, and a scale run sends packets over about a tenth (130 of 1,122 in
the benchmark's ``fluid_hybrid``; the other flows ride as fluid cohorts
and never touch a queue or a loss draw).  What a direction costs before
its first packet is therefore what the fabric costs.

This test reads, under ``tracemalloc``, the bytes live after
``CdnCluster(build_paper_topology())`` over the level before it — hosts,
agents and route tables included, they are 68 hosts against 1,122
directions — divides by the direction count and holds the figure under a
recorded ceiling.  It is the sibling of ``tests/tcp/test_hot_path_frames.py``,
``tests/cdn/test_background_plane_frames.py`` and
``tests/analysis/test_export_working_set.py`` for the fabric.

The direction count is pinned beside the figure: a smaller fabric must
never be a trunk dropped in disguise.  And after a short run with
traffic on a few trunks, the directions holding a loss generator must be
exactly the directions a packet was offered to — the saving is "built by
the first packet that needs it", not "built never".

Re-measure (prints the figure and the build time)::

    PYTHONPATH=src python tests/cdn/test_fabric_footprint.py

Measured on CPython 3.11, the whole cluster under ``tracemalloc`` and
the best of five builds outside it:

=====================================  ===============  ==========  ========
                                       bytes/direction  bytes       build
=====================================  ===============  ==========  ========
generator seeded and deque allocated   4,964            5,569,724   27-32 ms
per direction at connect time
both built by the direction's first    1,159            1,300,158   12 ms
packet, ``LinkStats`` slotted
=====================================  ===============  ==========  ========

A ``random.Random`` is 2,560 bytes of Mersenne state and an empty
``deque`` 760; a direction without them is a ``Link`` (208), its
``LinkStats`` (96), its loss-model clone, its name and its entries in
the fabric's two tables.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

from repro.cdn.cluster import CdnCluster
from repro.cdn.topology import build_paper_topology
from repro.net import Link

#: Ordered PoP pairs of the 34-PoP full mesh.
DIRECTIONS = 34 * 33

#: Bytes per trunk direction; see the table above.  The margin is for
#: interpreter versions (object sizes move a little), not for a new
#: per-direction object: a generator costs 2,560, a deque 760.
CEILING = 1_400


def links(cluster: CdnCluster) -> list[Link]:
    """Every trunk direction of ``cluster``'s fabric."""
    prefixes = [pop.prefix for pop in cluster.topology.pops]
    found = [
        cluster.network.link_from(a, b) for a in prefixes for b in prefixes if a != b
    ]
    assert None not in found
    return found


def build_under_tracemalloc() -> tuple[int, CdnCluster]:
    """Bytes live after the cluster build over the level before it."""
    topology = build_paper_topology()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cluster = CdnCluster(topology)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before, cluster


def test_bytes_per_trunk_direction() -> None:
    traced, cluster = build_under_tracemalloc()
    assert len(links(cluster)) == DIRECTIONS
    assert traced / DIRECTIONS <= CEILING


def test_a_generator_for_every_direction_a_packet_crossed_and_no_other() -> None:
    cluster = CdnCluster(build_paper_topology())
    assert not any(link._rng for link in links(cluster))
    cluster.add_organic_workload("LHR", ["JFK", "NRT", "SYD"])
    cluster.add_organic_workload("GRU", ["FRA"])
    cluster.run(2.0)
    used = {link.name for link in links(cluster) if link.stats.packets_offered > 0}
    assert 2 <= len(used) <= 8
    assert {link.name for link in links(cluster) if link._rng is not None} == used


if __name__ == "__main__":
    total, _ = build_under_tracemalloc()
    print(f"{total / DIRECTIONS:,.0f} bytes per direction ({total:,} B in all)")
    paper = build_paper_topology()
    walls = []
    for _ in range(5):
        started = time.perf_counter()
        CdnCluster(paper)
        walls.append(time.perf_counter() - started)
    print(f"{min(walls) * 1e3:.1f} ms to build (best of five)")
