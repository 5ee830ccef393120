"""Reproduction of *Riptide: Jump-Starting Back-Office Connections in
Cloud Systems* (Flores, Khakpour, Bedi — ICDCS 2016).

The package is layered bottom-up:

* :mod:`repro.sim` — deterministic discrete-event kernel;
* :mod:`repro.net` — links, loss models, the inter-PoP fabric;
* :mod:`repro.tcp` — segment-granularity TCP (slow start, CUBIC/Reno,
  NewReno recovery, RTO) with route-resolved initial windows;
* :mod:`repro.linux` — hosts with ``ip route``/``ss``-shaped surfaces;
* :mod:`repro.cdn` — the 34-PoP CDN, file sizes, probes, workloads;
* :mod:`repro.core` — **Riptide itself** (Algorithm 1 and its variants);
* :mod:`repro.model` — the Section II-B closed-form transfer model;
* :mod:`repro.analysis` — CDFs and percentile-gain comparisons;
* :mod:`repro.experiments` — one harness per paper figure/table.

Quick start::

    from repro.cdn.cluster import CdnCluster
    from repro.cdn.topology import build_paper_topology

    cluster = CdnCluster(build_paper_topology())
    cluster.add_organic_workload("LHR", ["JFK", "NRT"])
    cluster.start_riptide()
    cluster.run(60.0)
"""
