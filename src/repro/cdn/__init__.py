"""The CDN substrate: PoPs, geography, workloads and transfers.

Synthesises the environment the paper evaluates in — a 34-PoP global CDN
(Table II) with wide-area RTTs whose median exceeds 125 ms (Figure 5), a
production-like file-size distribution (Figure 2), diagnostic probes of
10/50/100 KB (Section IV-A), and organic background traffic.
"""
